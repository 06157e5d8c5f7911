package main

import (
	"context"
	"time"

	"wikisearch"
	"wikisearch/internal/storage"
	"wikisearch/internal/text"
)

// corePhases maps the engine's phase names to per-layer metric names.
var corePhases = []struct{ phase, metric string }{
	{"Initialization", "core.init_ms"},
	{"Enqueuing Frontiers", "core.enqueue_ms"},
	{"Identifying Central Nodes", "core.identify_ms"},
	{"Expansion", "core.expand_ms"},
	{"Top-down Processing", "core.topdown_ms"},
}

// layerInput is everything a traced run measured.
type layerInput struct {
	run           load
	recs          map[int64]handlerRec
	before, after metricSet
	gcCycles      uint64
	gcPause       time.Duration
	setups        []setupTimes
	mappedBytes   int64
	text          textProbe
	t2Speedup     float64
	traceOverhead float64
}

// layerMetrics derives the per-layer metrics of a traced run. Per request,
// the client latency C holds the handler time H, which holds the engine
// time E (zero on a cache hit), which holds the batch wait W and the core
// phase total P: net = C−H, server = H−E, engine = E−P−W.
func layerMetrics(in layerInput) map[string]float64 {
	out := map[string]float64{}
	run := in.run

	var (
		transport, handler, self, engine, other []float64
		tracedC, plainC                         []float64
		layerSum, clientSum                     float64
		hits, bytes                             float64
		cands, depth, answers, misses           float64
	)
	for _, s := range run.searches {
		bytes += float64(s.bytes)
		if s.hit {
			hits++
		} else {
			misses++
			cands += float64(s.cands)
			depth += float64(s.depth)
			answers += float64(s.answers)
		}
		c := ms(s.lat)
		if !s.traced {
			plainC = append(plainC, c)
			continue
		}
		tracedC = append(tracedC, c)
		rec, ok := in.recs[s.seq]
		if !ok || (!s.hit && !rec.found) {
			continue // no engine trace to split the request by
		}
		h := ms(rec.handler)
		e, w, p := 0.0, 0.0, 0.0
		if !s.hit {
			e, w, p = ms(rec.engine), ms(rec.wait), s.totalMs
			engine = append(engine, e)
			other = append(other, e-p-w)
		}
		transport = append(transport, c-h)
		handler = append(handler, h)
		self = append(self, h-e)
		layerSum += max(0, c-h) + max(0, h-e) + max(0, e-p-w) + p + w
		clientSum += c
	}
	n := float64(len(run.searches))
	out["net.transport_ms"] = mean(transport)
	out["server.handler_ms"] = mean(handler)
	out["server.self_ms"] = mean(self)
	out["server.resp_bytes"] = ratio(bytes, n)
	out["server.limited"] = in.after.diff(in.before, "wikisearch_http_limited_total")
	out["server.timeouts"] = in.after.diff(in.before, "wikisearch_http_timeouts_total")
	out["cache.hit_ratio"] = ratio(hits, n)
	out["cache.purges"] = in.after.diff(in.before, "wikisearch_publishes_total") +
		in.after.diff(in.before, "wikisearch_compactions_total")

	batches := in.after.diff(in.before, "wikisearch_batch_occupancy_count")
	out["batch.occupancy"] = in.after.histMean(in.before, "wikisearch_batch_occupancy", "")
	out["batch.solo_frac"] = ratio(in.after.diff(in.before, "wikisearch_batch_solo_total"), batches)
	out["batch.wait_ms"] = 1e3 * in.after.histMean(in.before, "wikisearch_batch_coalesce_seconds", "")

	out["engine.search_ms"] = mean(engine)
	out["engine.other_ms"] = mean(other)
	for _, ph := range corePhases {
		out[ph.metric] = 1e3 * in.after.histMean(in.before, "wikisearch_search_phase_seconds", `{phase="`+ph.phase+`"}`)
	}
	out["core.candidates"] = ratio(cands, misses)
	out["core.depth"] = ratio(depth, misses)
	out["core.answers"] = ratio(answers, misses)

	out["text.terms_us"] = in.text.termsUs
	out["text.lookup_us"] = in.text.lookupUs
	out["text.postings"] = in.text.postings
	out["parallel.t2_speedup"] = in.t2Speedup
	out["trace.overhead_frac"] = in.traceOverhead

	var mutLat, publish, apply []float64
	for _, m := range run.mutates {
		mutLat = append(mutLat, ms(m.lat))
		publish = append(publish, m.publishMs)
		if rec, ok := in.recs[mutateKey(m.seq)]; ok && m.traced {
			apply = append(apply, ms(rec.handler)-m.publishMs)
		}
	}
	out["mutate.p50_ms"] = percentile(mutLat, 0.5)
	out["mutate.p95_ms"] = percentile(mutLat, tailQ)
	out["mutate.publish_ms"] = mean(publish)
	out["mutate.apply_ms"] = mean(apply)
	out["mutate.compactions"] = in.after.diff(in.before, "wikisearch_compactions_total")
	out["epoch.old_live_peak"] = float64(run.oldLive)

	var build, save, load, first []float64
	for _, t := range in.setups {
		build = append(build, t.build.Seconds())
		save = append(save, t.save.Seconds())
		load = append(load, t.load.Seconds())
		first = append(first, ms(t.first))
	}
	out["engine.build_s"] = median(build)
	out["engine.first_search_ms"] = median(first)
	out["storage.save_s"] = median(save)
	out["storage.load_s"] = median(load)
	out["storage.mapped_mb"] = float64(in.mappedBytes) / (1 << 20)

	reqs := n + float64(len(run.mutates))
	out["runtime.gc_cycles_per_kreq"] = ratio(float64(in.gcCycles), reqs/1000)
	out["runtime.gc_pause_ms"] = ms(in.gcPause)

	out["bench.coverage"] = ratio(layerSum, clientSum)
	out["bench.overhead_frac"] = ratio(mean(tracedC), mean(plainC)) - 1
	out["bench.failed_frac"] = ratio(float64(run.failed), float64(attempted(run)))
	return out
}

// attempted counts every request of a window: each either produced a
// sample or a failure.
func attempted(l load) int { return len(l.searches) + len(l.mutates) + l.failed }

// textProbe times the text layer on the workload's queries.
type textProbe struct {
	termsUs, lookupUs, postings float64
}

// probeText times text.QueryTerms on every query and Index.Lookup on every
// term, against the index of the dump the server runs on.
func probeText(dumpPath string, queries []string) (textProbe, error) {
	d, err := storage.LoadDumpFile(dumpPath)
	if err != nil {
		return textProbe{}, err
	}
	defer d.Close()
	ix := d.Index
	if ix == nil {
		ix = text.BuildIndex(d.Graph)
	}
	var termsT, lookupT time.Duration
	var terms, postings int
	for _, q := range queries {
		t0 := time.Now()
		ts := text.QueryTerms(q)
		termsT += time.Since(t0)
		for _, t := range ts {
			t1 := time.Now()
			p := ix.Lookup(t)
			lookupT += time.Since(t1)
			terms++
			postings += len(p)
		}
	}
	return textProbe{
		termsUs:  ratio(float64(termsT.Microseconds()), float64(len(queries))),
		lookupUs: ratio(float64(lookupT)/float64(time.Microsecond), float64(terms)),
		postings: ratio(float64(postings), float64(terms)),
	}, nil
}

// interleave runs each query from one caller under two settings, A then B
// or B then A by turns, until the budget is spent, and returns the median
// over queries of the time under B divided by the time under A. Pairing on
// the query keeps the heavy-tailed query cost out of the ratio.
func interleave(eng *wikisearch.Engine, queries []string, budget time.Duration, a, b func(*wikisearch.Query)) (float64, error) {
	run := func(q string, set func(*wikisearch.Query)) (time.Duration, error) {
		query := wikisearch.Query{Text: q, TopK: topK}
		set(&query)
		t := time.Now()
		_, err := eng.Search(context.Background(), query)
		return time.Since(t), err
	}
	var ratios []float64
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline) || i == 0; i++ {
		q := queries[i%len(queries)]
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		d1, err := run(q, first)
		if err != nil {
			return 0, err
		}
		d2, err := run(q, second)
		if err != nil {
			return 0, err
		}
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		ratios = append(ratios, ratio(float64(d2), float64(d1)))
	}
	return median(ratios), nil
}

// probeEngine measures the parallel and trace layers with direct searches
// on the search-miss queries from one caller, with batching off so every
// search runs solo: Threads=1 against Threads=2, and tracing off against
// tracing on.
func probeEngine(eng *wikisearch.Engine, queries []string, budget time.Duration) (t2Speedup, traceOverhead float64, err error) {
	eng.DisableBatching()
	t2, err := interleave(eng, queries, budget/2, func(q *wikisearch.Query) { q.Threads = 1 }, func(q *wikisearch.Query) { q.Threads = 2 })
	if err != nil {
		return 0, 0, err
	}
	defer eng.SetTracing(true)
	traceOff := func(*wikisearch.Query) { eng.SetTracing(false) }
	traceOn := func(*wikisearch.Query) { eng.SetTracing(true) }
	on, err := interleave(eng, queries, budget/2, traceOff, traceOn)
	if err != nil {
		return 0, 0, err
	}
	return ratio(1, t2), on - 1, nil
}
