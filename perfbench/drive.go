package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// clients is the closed-loop client count: each sends its next request
// only after the previous reply has been read. The transport keeps at most
// this many connections.
const clients = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// searchSample is one /v1/search exchange as the client saw it.
type searchSample struct {
	seq     int64
	lat     time.Duration // request sent to body fully read
	hit     bool          // X-Cache: HIT
	traced  bool
	bytes   int
	totalMs float64 // stats.total_ms: the engine's phase profile total
	cands   int
	depth   int
	answers int
}

// mutateSample is one POST /v1/mutate exchange.
type mutateSample struct {
	seq       int64
	lat       time.Duration
	publishMs float64
	traced    bool
}

// load is the outcome of driving the server for one window.
type load struct {
	wall     time.Duration
	searches []searchSample
	mutates  []mutateSample
	failures []string
	failed   int
	acked    int // mutate batches acknowledged with a publish
	sentOps  int // mutation ops acknowledged
	oldLive  int // epoch.old_live_peak (traced runs only)
}

// stream hands out requests in schedule order to every client that pulls
// from it; the sequence number decides, per request, whether it is traced.
type stream struct {
	paths []string
	order []int32 // schedule indexes into paths; nil means paths in order
	next  atomic.Int64
}

func (s *stream) pull() (seq int64, path string, traced bool) {
	seq = s.next.Add(1) - 1
	n := int64(len(s.paths))
	if s.order != nil {
		n = int64(len(s.order))
	}
	pos, cycle := seq%n, seq/n
	i := int(pos)
	if s.order != nil {
		i = int(s.order[pos])
	}
	// Alternate tracing by position and cycle, so every schedule entry is
	// traced in every other cycle and both halves see the same mix.
	return seq, s.paths[i], (pos+cycle)%2 == 0
}

// driver runs the closed-loop clients against one service.
type driver struct {
	svc    *service
	client *http.Client
	trace  bool
	pace   *pacer // set when a writer runs beside the readers
	mu     sync.Mutex
	out    load
}

// pacer lets the writer wait for the readers: it counts completed reads
// and wakes a waiting writer once the count reaches its target or the
// readers have stopped.
type pacer struct {
	mu      sync.Mutex
	cond    sync.Cond
	reads   int64
	readers int // readers still running
}

func newPacer(readers int) *pacer {
	p := &pacer{readers: readers}
	p.cond.L = &p.mu
	return p
}

// read counts one completed read.
func (p *pacer) read() {
	p.mu.Lock()
	p.reads++
	p.mu.Unlock()
	p.cond.Broadcast()
}

// stop marks one reader as finished.
func (p *pacer) stop() {
	p.mu.Lock()
	p.readers--
	p.mu.Unlock()
	p.cond.Broadcast()
}

// await waits until n more reads have completed; it reports false when
// the readers stopped first.
func (p *pacer) await(n int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	target := p.reads + n
	for p.reads < target && p.readers > 0 {
		p.cond.Wait()
	}
	return p.reads >= target
}

func (d *driver) fail(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.out.failed++
	if len(d.out.failures) < 20 {
		d.out.failures = append(d.out.failures, fmt.Sprintf(format, args...))
	}
}

// searchReply is the part of the /v1/search envelope the check reads.
type searchReply struct {
	Results *[]struct {
		Central string `json:"central"`
	} `json:"results"`
	Stats *struct {
		Query      string  `json:"query"`
		Depth      int     `json:"depth"`
		Candidates int     `json:"candidates"`
		TotalMs    float64 `json:"total_ms"`
	} `json:"stats"`
	Error *json.RawMessage `json:"error"`
}

// search sends one query and checks the reply: status 200, a JSON
// envelope with a results array and the stats of the query sent.
func (d *driver) search(seq int64, path string, traced bool, buf *bytes.Buffer) (searchSample, bool) {
	req, err := http.NewRequest(http.MethodGet, d.svc.base+path, nil)
	if err != nil {
		d.fail("build request: %v", err)
		return searchSample{}, false
	}
	traced = traced && d.trace
	if traced {
		req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	}
	buf.Reset()
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		d.fail("GET %s: %v", path, err)
		return searchSample{}, false
	}
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		d.fail("GET %s: read body: %v", path, err)
		return searchSample{}, false
	}
	if resp.StatusCode != http.StatusOK {
		d.fail("GET %s: status %d: %.200s", path, resp.StatusCode, buf.Bytes())
		return searchSample{}, false
	}
	var rep searchReply
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil || rep.Results == nil || rep.Stats == nil || rep.Error != nil {
		d.fail("GET %s: malformed envelope (%v): %.200s", path, err, buf.Bytes())
		return searchSample{}, false
	}
	if want := req.URL.Query().Get("q"); rep.Stats.Query != want {
		d.fail("GET %s: stats.query %q, sent %q", path, rep.Stats.Query, want)
		return searchSample{}, false
	}
	return searchSample{
		seq:     seq,
		lat:     lat,
		hit:     resp.Header.Get("X-Cache") == "HIT",
		traced:  traced,
		bytes:   buf.Len(),
		totalMs: rep.Stats.TotalMs,
		cands:   rep.Stats.Candidates,
		depth:   rep.Stats.Depth,
		answers: len(*rep.Results),
	}, true
}

// mutateKey maps a write's sequence number into the traced-record key
// space, apart from the searches' non-negative keys.
func mutateKey(seq int64) int64 { return -seq - 1 }

// mutateReply is the /v1/mutate envelope.
type mutateReply struct {
	Results []struct {
		Op   string `json:"op"`
		Node *int64 `json:"node"`
	} `json:"results"`
	Stats *struct {
		Applied   int     `json:"applied"`
		Published bool    `json:"published"`
		PublishMs float64 `json:"publish_ms"`
	} `json:"stats"`
}

// mutate posts one batch and checks the reply: status 200, every op
// applied, the batch published and the added node given the expected id.
func (d *driver) mutate(seq int64, body []byte, ops int, wantNode int64, traced bool) (mutateSample, bool) {
	req, err := http.NewRequest(http.MethodPost, d.svc.base+"/v1/mutate", bytes.NewReader(body))
	if err != nil {
		d.fail("build request: %v", err)
		return mutateSample{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	traced = traced && d.trace
	if traced {
		req.Header.Set(seqHeader, strconv.FormatInt(mutateKey(seq), 10))
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		d.fail("POST /v1/mutate: %v", err)
		return mutateSample{}, false
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		d.fail("POST /v1/mutate: read body: %v", err)
		return mutateSample{}, false
	}
	if resp.StatusCode != http.StatusOK {
		d.fail("POST /v1/mutate #%d: status %d: %.300s", seq, resp.StatusCode, raw)
		return mutateSample{}, false
	}
	var rep mutateReply
	if err := json.Unmarshal(raw, &rep); err != nil || rep.Stats == nil {
		d.fail("POST /v1/mutate #%d: malformed envelope (%v): %.200s", seq, err, raw)
		return mutateSample{}, false
	}
	if rep.Stats.Applied != ops || len(rep.Results) != ops || !rep.Stats.Published {
		d.fail("POST /v1/mutate #%d: applied %d/%d published=%v", seq, rep.Stats.Applied, ops, rep.Stats.Published)
		return mutateSample{}, false
	}
	if n := rep.Results[0].Node; rep.Results[0].Op != "add_node" || n == nil || *n != wantNode {
		d.fail("POST /v1/mutate #%d: add_node got id %v, want %d", seq, n, wantNode)
		return mutateSample{}, false
	}
	return mutateSample{seq: seq, lat: lat, publishMs: rep.Stats.PublishMs, traced: traced}, true
}

// searchClient sends searches from the stream until the deadline.
func (d *driver) searchClient(s *stream, until time.Time, wg *sync.WaitGroup) {
	defer wg.Done()
	if d.pace != nil {
		defer d.pace.stop()
	}
	var buf bytes.Buffer
	var mine []searchSample
	for time.Now().Before(until) {
		seq, path, traced := s.pull()
		if smp, ok := d.search(seq, path, traced, &buf); ok {
			mine = append(mine, smp)
		}
		if d.pace != nil {
			d.pace.read()
		}
	}
	d.mu.Lock()
	d.out.searches = append(d.out.searches, mine...)
	d.mu.Unlock()
}

// mutateClient posts batches from the generator until the deadline or
// limit batches (limit <= 0: no limit). Beside readers it waits for
// mutReads reads after each batch; in a traced run it samples the
// engine's epoch state after every ack.
func (d *driver) mutateClient(gen *mutationGen, until time.Time, limit int, wg *sync.WaitGroup) {
	defer wg.Done()
	var mine []mutateSample
	acked, ops, peak := 0, 0, 0
	for seq := int64(0); time.Now().Before(until) && (limit <= 0 || seq < int64(limit)); seq++ {
		req, id := gen.next()
		body, err := json.Marshal(req)
		if err != nil {
			d.fail("encode batch: %v", err)
			return
		}
		smp, ok := d.mutate(seq, body, len(req.Ops), id, seq%2 == 0)
		if !ok {
			continue
		}
		mine = append(mine, smp)
		acked++
		ops += len(req.Ops)
		if d.trace {
			peak = max(peak, d.svc.eng.EpochStats().OldLive)
		}
		if d.pace != nil && !d.pace.await(mutReads) {
			break
		}
	}
	d.mu.Lock()
	d.out.mutates = append(d.out.mutates, mine...)
	d.out.acked += acked
	d.out.sentOps += ops
	d.out.oldLive = max(d.out.oldLive, peak)
	d.mu.Unlock()
}

// drive runs one measurement window: both clients on the search stream,
// or, when gen is set, one on the search stream and one on the writes.
func drive(svc *service, client *http.Client, s *stream, gen *mutationGen, window time.Duration, trace bool) load {
	d := &driver{svc: svc, client: client, trace: trace}
	if trace {
		svc.handler.start()
	}
	var wg sync.WaitGroup
	start := time.Now()
	until := start.Add(window)
	readers := clients
	if gen != nil {
		readers = clients - 1
		d.pace = newPacer(readers)
		wg.Add(1)
		go d.mutateClient(gen, until, 0, &wg)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go d.searchClient(s, until, &wg)
	}
	wg.Wait()
	d.out.wall = time.Since(start)
	return d.out
}

// warmUp sends every path once from both clients, untimed, and a few
// write batches when gen is set.
func warmUp(svc *service, client *http.Client, paths []string, gen *mutationGen, batches int) load {
	d := &driver{svc: svc, client: client}
	s := &stream{paths: paths}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				seq, path, _ := s.pull()
				if seq >= int64(len(paths)) {
					return
				}
				if smp, ok := d.search(seq, path, false, &buf); ok {
					d.mu.Lock()
					d.out.searches = append(d.out.searches, smp)
					d.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if gen != nil {
		wg.Add(1)
		d.mutateClient(gen, time.Now().Add(time.Minute), batches, &wg)
	}
	return d.out
}

// sampleBytes is the heap the window's samples hold: client-side state
// the memory metric leaves out.
func (l load) sampleBytes() uint64 {
	return uint64(cap(l.searches))*uint64(unsafe.Sizeof(searchSample{})) +
		uint64(cap(l.mutates))*uint64(unsafe.Sizeof(mutateSample{}))
}
