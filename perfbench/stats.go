package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile.
func beyond(xs []float64, q float64) int {
	p := percentile(xs, q)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricSet is one /metrics scrape: sample name with its labels → value.
type metricSet map[string]float64

func scrape(client *http.Client, base string) (metricSet, error) {
	body, err := get(client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := metricSet{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: malformed value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// diff is the rise of one sample between two scrapes.
func (m metricSet) diff(before metricSet, name string) float64 { return m[name] - before[name] }

// histMean is the mean of a histogram's observations between two scrapes.
func (m metricSet) histMean(before metricSet, name, labels string) float64 {
	return ratio(m.diff(before, name+"_sum"+labels), m.diff(before, name+"_count"+labels))
}

// gcSnap reads the runtime's GC cycle count and pause histogram.
type gcSnap struct {
	cycles uint64
	pauses *metrics.Float64Histogram
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readGC() gcSnap {
	s := make([]metrics.Sample, len(gcSamples))
	copy(s, gcSamples)
	metrics.Read(s)
	return gcSnap{cycles: s[0].Value.Uint64(), pauses: s[1].Value.Float64Histogram()}
}

// gcDelta returns the GC cycles between two snapshots and their mean
// stop-the-world pause, taking each histogram bucket at its midpoint.
func gcDelta(a, b gcSnap) (cycles uint64, meanPause time.Duration) {
	var n uint64
	var sum float64
	for i, c := range b.pauses.Counts {
		d := c - a.pauses.Counts[i]
		if d == 0 {
			continue
		}
		lo, hi := b.pauses.Buckets[i], b.pauses.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		n += d
		sum += float64(d) * (lo + hi) / 2
	}
	if n == 0 {
		return b.cycles - a.cycles, 0
	}
	return b.cycles - a.cycles, time.Duration(sum / float64(n) * float64(time.Second))
}
