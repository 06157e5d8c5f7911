// Command perfbench is the end-to-end serving benchmark: it starts
// internal/server on a loopback listener with cmd/wikiserve's default
// configuration, drives it over net/http with two closed-loop clients, and
// checks every reply. Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload search-miss --seed 1 --seconds 25 --trace 0
//
// Workloads: search-miss (distinct Knum 2–6 queries, the engine does the
// work), search-hot (Zipf traffic over 64 short queries, served from the
// result cache) and mutate-mix (the hot stream against a stream of
// published mutation batches). --trace 0 prints the end-to-end metrics;
// --trace 1 times each layer instead and prints the per-layer metrics.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"wikisearch/internal/bench"
)

// compactAfter is the mutator's default compaction threshold, which
// mutate-mix runs with.
const compactAfter = 4096

// warmBatches is the number of untimed write batches mutate-mix sends.
const warmBatches = 4

// units of every metric the benchmark prints.
var units = map[string]string{
	"search_qps": "1/s", "search_p50_ms": "ms", "search_p95_ms": "ms",
	"setup_s": "s", "mem_mb": "MB",

	"net.transport_ms": "ms", "server.handler_ms": "ms", "server.self_ms": "ms",
	"server.resp_bytes": "bytes", "server.limited": "count", "server.timeouts": "count",
	"cache.hit_ratio": "ratio", "cache.purges": "count",
	"batch.occupancy": "queries", "batch.solo_frac": "ratio", "batch.wait_ms": "ms",
	"engine.search_ms": "ms", "engine.other_ms": "ms",
	"engine.build_s": "s", "engine.first_search_ms": "ms",
	"text.terms_us": "us", "text.lookup_us": "us", "text.postings": "count",
	"core.init_ms": "ms", "core.enqueue_ms": "ms", "core.identify_ms": "ms",
	"core.expand_ms": "ms", "core.topdown_ms": "ms",
	"core.candidates": "count", "core.depth": "levels", "core.answers": "count",
	"parallel.t2_speedup": "ratio", "trace.overhead_frac": "ratio",
	"mutate.p50_ms": "ms", "mutate.p95_ms": "ms", "mutate.publish_ms": "ms",
	"mutate.apply_ms": "ms", "mutate.compactions": "count", "epoch.old_live_peak": "count",
	"storage.save_s": "s", "storage.load_s": "s", "storage.mapped_mb": "MB",
	"runtime.gc_cycles_per_kreq": "count", "runtime.gc_pause_ms": "ms",
	"bench.coverage": "ratio", "bench.overhead_frac": "ratio", "bench.failed_frac": "ratio",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "search-miss, search-hot or mutate-mix")
	seed := flag.Int64("seed", 1, "workload seed: the search-miss order and warm-up set and the hot and mutate-mix read streams")
	seconds := flag.Int("seconds", 25, "measured wall time")
	traceFlag := flag.Int("trace", 0, "1 times each layer and prints the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for the run's dump files")
	flag.Parse()
	switch *workload {
	case "search-miss", "search-hot", "mutate-mix":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	res, info, err := bench1(*workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range info.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	if err := printJSON(info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// runInfo is the run's context, printed before the result line.
type runInfo struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Trace    bool          `json:"trace"`
	Env      bench.RunEnv  `json:"env"`
	CPUModel string        `json:"cpu_model"`
	Fixture  fixtureInfo   `json:"fixture"`
	Samples  sampleInfo    `json:"samples"`
	SetupS   []float64     `json:"setup_s"`
	Window   time.Duration `json:"window_ns"`
	// Steal is the share of the machine's CPU time the hypervisor gave to
	// other guests during the window, and SetupSteal during the set-ups.
	// It is context only: no metric is corrected by it. On a shared 2-vCPU
	// host it swung between 0 and 28% from one minute to the next, and
	// throughput, latency and set-up time all moved with it (NewEngine took
	// 0.88 s at 1% steal and 1.25 s at 19% within one run), so runs are
	// best compared at similar steal.
	Steal      float64 `json:"steal_share"`
	SetupSteal float64 `json:"setup_steal_share"`
	// SetupBuildS is the NewEngine part of each set-up, the part that
	// varies; save, load, server start and the first reply took under
	// 0.1 s together.
	SetupBuildS []float64 `json:"setup_build_s"`
	// setupStolen and setupTicks sum the steal and all CPU ticks over the
	// set-ups, for SetupSteal.
	setupStolen, setupTicks uint64
	// HitRatio is the X-Cache: HIT share of the window's searches and
	// SearchTail their p90, p95, p98 and p99 latency in ms.
	HitRatio   float64   `json:"hit_ratio"`
	SearchTail []float64 `json:"search_p90_p95_p98_p99_ms"`
	Failures   []string  `json:"failures,omitempty"`
}

type fixtureInfo struct {
	Nodes           int `json:"nodes"`
	Edges           int `json:"edges"`
	DistinctQueries int `json:"distinct_queries"`
	WarmupQueries   int `json:"warmup_queries"`
	MutateBatches   int `json:"mutate_batches,omitempty"`
	MutateOps       int `json:"mutate_ops,omitempty"`
}

type sampleInfo struct {
	Searches         int `json:"searches"`
	BeyondSearchTail int `json:"beyond_search_p95"`
	Mutates          int `json:"mutates,omitempty"`
	BeyondMutateTail int `json:"beyond_mutate_p95,omitempty"`
}

// The tail percentile reported. search-miss completes 15–25 searches a
// second on two cores, so a 25-second window leaves about ten samples
// beyond p98 and five beyond p99, and those few are the heaviest queries
// and whichever query waited behind one: between runs, p98 moved by a fifth
// even on a quiet host. p95 keeps about 20 or more samples beyond it on
// every workload, and the write stream's p95 more than ten.
const tailQ = 0.95

// bench1 is one run: fixture, set-ups, warm-up, the measured window, the
// checks and the set-ups after the window.
func bench1(workload string, seed int64, seconds time.Duration, trace bool, work string) (result, runInfo, error) {
	f := newFixture(seed)
	mutable := workload == "mutate-mix"
	queries := f.hot
	warm := f.hot
	if workload == "search-miss" {
		queries, warm = f.miss, f.warm
	}
	info := runInfo{
		Workload: workload,
		Seed:     seed,
		Trace:    trace,
		Env:      bench.CaptureEnv(f.name, f.nodes, f.edges),
		CPUModel: cpuModel(),
		Fixture: fixtureInfo{
			Nodes: f.nodes, Edges: f.edges,
			DistinctQueries: len(queries), WarmupQueries: len(warm),
		},
	}
	client := newClient()
	defer client.CloseIdleConnections()

	svc, setups, err := setUp(f, work, 0, setupReps, mutable, warm[0], client, &info)
	if err != nil {
		return result{}, info, err
	}
	defer svc.close()
	f.release()
	runtime.GC()
	afterSetup, err := scrape(client, svc.base)
	if err != nil {
		return result{}, info, err
	}

	var gen *mutationGen
	if mutable {
		gen = newMutationGen(f.nodes)
	}
	warmRun := warmUp(svc, client, paths(warm), gen, warmBatches)

	s := &stream{paths: paths(queries)}
	switch workload {
	case "search-hot":
		s.order = f.hotSeq
	case "mutate-mix":
		// Uniform, not Zipf: every publish empties the cache, and under
		// Zipf about half the reads hit the few top queries again before
		// the next publish, which leaves the median on the edge between a
		// 0.2 ms hit and a 5 ms miss.
		s.order = f.mixSeq
	}
	window := seconds
	if trace {
		window = seconds * 8 / 10
	}
	before, err := scrape(client, svc.base)
	if err != nil {
		return result{}, info, err
	}
	runtime.GC()
	gc0 := readGC()
	steal0, ticks0, _ := cpuTicks()
	measured := drive(svc, client, s, gen, window, trace)
	steal1, ticks1, _ := cpuTicks()
	info.Steal = stealShare(steal0, ticks0, steal1, ticks1)
	gc1 := readGC()
	var recs map[int64]handlerRec
	if trace {
		recs = svc.handler.records()
	}
	var heap runtime.MemStats
	if !trace {
		// Two collections: the first moves sync.Pool contents (pooled
		// search states) to the victim cache, the second frees them, so
		// the figure does not depend on how many states were parked in a
		// pool at the instant the window closed.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&heap)
	}
	after, err := scrape(client, svc.base)
	if err != nil {
		return result{}, info, err
	}
	info.Window = measured.wall

	failures := append(warmRun.failures, measured.failures...)
	attempts := attempted(warmRun) + attempted(measured)
	failed := warmRun.failed + measured.failed
	if mutable {
		bad := checkMutations(client, svc.base, warmRun.acked+measured.acked, warmRun.sentOps+measured.sentOps, compactAfter, afterSetup)
		failures = append(failures, bad...)
		attempts++
		if len(bad) > 0 {
			failed++
		}
		info.Fixture.MutateBatches = gen.batches
		info.Fixture.MutateOps = gen.ops
	}
	sample := queries[:min(checkSample, len(queries))]
	bad := checkAnswers(svc, client, sample)
	failures = append(failures, bad...)
	attempts += len(sample)
	failed += len(bad)

	// The set-ups after the window (see lateSetupReps). The heap was read
	// above, before the graph is generated again.
	f.regenerate()
	late, lateTimes, err := setUp(f, work, setupReps, lateSetupReps, mutable, warm[0], client, &info)
	f.release()
	if err != nil {
		return result{}, info, err
	}
	late.close()
	setups = append(setups, lateTimes...)
	info.SetupSteal = ratio(float64(info.setupStolen), float64(info.setupTicks))

	var searchLat, mutateLat []float64
	hits := 0
	for _, smp := range measured.searches {
		searchLat = append(searchLat, ms(smp.lat))
		if smp.hit {
			hits++
		}
	}
	for _, smp := range measured.mutates {
		mutateLat = append(mutateLat, ms(smp.lat))
	}
	info.HitRatio = ratio(float64(hits), float64(len(measured.searches)))
	for _, q := range []float64{0.9, 0.95, 0.98, 0.99} {
		info.SearchTail = append(info.SearchTail, percentile(searchLat, q))
	}
	info.Samples = sampleInfo{
		Searches: len(searchLat), BeyondSearchTail: beyond(searchLat, tailQ),
		Mutates: len(mutateLat), BeyondMutateTail: beyond(mutateLat, tailQ),
	}
	if info.Samples.BeyondSearchTail < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %d search samples beyond p95\n", info.Samples.BeyondSearchTail)
	}
	if mutable && info.Samples.BeyondMutateTail < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %d mutate samples beyond p95\n", info.Samples.BeyondMutateTail)
	}

	values := map[string]float64{}
	if trace {
		tp, err := probeText(svc.dump, queries)
		if err != nil {
			return result{}, info, fmt.Errorf("text probe: %w", err)
		}
		t2, overhead, err := probeEngine(svc.eng, f.miss, seconds-window)
		if err != nil {
			return result{}, info, fmt.Errorf("engine probe: %w", err)
		}
		cycles, pause := gcDelta(gc0, gc1)
		values = layerMetrics(layerInput{
			run: measured, recs: recs, before: before, after: after,
			gcCycles: cycles, gcPause: pause, setups: setups,
			mappedBytes: svc.eng.LoadInfo().MappedBytes,
			text:        tp, t2Speedup: t2, traceOverhead: overhead,
		})
	} else {
		var totals []float64
		for _, t := range setups {
			totals = append(totals, t.total.Seconds())
		}
		values["search_qps"] = float64(len(measured.searches)) / measured.wall.Seconds()
		values["search_p50_ms"] = percentile(searchLat, 0.5)
		values["search_p95_ms"] = percentile(searchLat, tailQ)
		values["setup_s"] = median(totals)
		values["mem_mb"] = float64(heap.HeapAlloc-measured.sampleBytes()+uint64(svc.eng.LoadInfo().MappedBytes)) / (1 << 20)
	}
	out := result{Correct: failed == 0, Attempted: attempts, Failed: failed, Metrics: map[string]metricValue{}}
	for name, v := range values {
		out.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	info.Failures = failures
	return out, info, nil
}

func paths(queries []string) []string {
	out := make([]string, len(queries))
	for i, q := range queries {
		out[i] = searchPath(q)
	}
	return out
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
