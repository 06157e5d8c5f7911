package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"wikisearch/internal/gen"
	"wikisearch/internal/server"
	"wikisearch/internal/text"
)

// Fixture sizes. The dataset is the wiki2017-sim preset, the paper's
// default dataset analogue (60,231 nodes, 480,437 edges).
const (
	// missPerKnum is the number of distinct search-miss queries per keyword
	// count (Knum 2–6). The measured schedule cycles through them in a
	// seed-drawn order; the set is larger than the result cache, so a cyclic
	// scan never hits.
	missPerKnum = 80
	// missPopulationSeed fixes which queries form the search-miss set and
	// their base order. Query cost is heavy-tailed (a tenth of the queries
	// take about 60% of the engine time) and a run covers only about one
	// and a half passes over the set, so a per-seed draw of the query text
	// or a free reordering would move throughput and the tail by more than
	// any bound. The seed shuffles the order within each block of
	// missBlock queries: every run's prefix holds the same work, in a
	// different interleaving, and the seed also draws the warm-up set.
	missPopulationSeed = 2017
	missBlock          = 16
	// warmPerKnum is the number of warm-up queries per keyword count for
	// search-miss, drawn from the workload seed and disjoint from the
	// measured set.
	warmPerKnum = 6
	// hotQueries short (1–2 keyword) queries carry the search-hot stream,
	// ranked by a Zipf law with exponent hotSkew.
	hotQueries = 64
	hotSkew    = 1.4
	// hotStream is the length of the pre-drawn index streams the hot
	// clients cycle through.
	hotStream = 1 << 16
	// topK is the k of every search request.
	topK = 20
	// mutPopulationSeed fixes the mutate-mix write stream. Its batches
	// reshape the graph the reads search (per run, about 7,000 edges
	// added and most removed again, and a few hundred nodes added and
	// given fresh keywords). With a per-seed stream, quiet runs read at
	// either about 155 or about 125 queries a second depending on the
	// seed, and a slow seed was slow again when repeated; with this fixed
	// stream, four quiet runs on different seeds were within 4%. The
	// workload seed draws the read stream.
	mutPopulationSeed = 2018
)

// Mutation batch shape. No observed write traffic backs it, and it is not
// the repository's in-process mutation stream (internal/bench/mutatebench.go:
// 8 ops per publish every 2 ms, add-heavy, on tiny-sim). It was chosen so
// that a run covers all five op kinds, crosses the default 4096-op
// compaction threshold several times, and repeats from run to run; it
// stands for no real workload. Every POST /v1/mutate carries one add_node
// and these ops, 64 in all.
const (
	mutAddEdges  = 24
	mutRetext    = 8
	mutReweights = 8
	mutRemoves   = 23
)

// mutReads is how many reads the writer lets the read client complete
// after each acknowledged batch before it posts the next one. A publish
// recomputes every weight on both cores for about 30 ms. When the writer
// instead paused a fixed 50 ms, a slower host stretched each publish while
// the pause stayed put, so both the share of reads that overlapped a
// publish and how long they waited grew with the slowdown, and the read
// p95 moved by a quarter between sets of runs of the same code. Paced by
// reads, a cycle holds the same work on any host: mutReads reads between
// publishes and, during each publish, whatever reads fit beside it; a
// slowdown stretches every part alike. Like the batch shape, the figure
// was chosen for run-to-run stability and stands for no real workload.
const mutReads = 12

// fixture is the generated input of one run: the dataset plus every query
// and mutation the clients send. Everything is a pure function of the
// seed.
type fixture struct {
	kb    *gen.KB // released once set-up has built the engine
	name  string
	nodes int
	edges int

	// miss is the search-miss query set in schedule order; warm holds
	// its warm-up queries. hot is the short-query set in Zipf rank order,
	// hotSeq the Zipf stream over it and mixSeq a uniform stream over it.
	miss   []string
	warm   []string
	hot    []string
	hotSeq []int32
	mixSeq []int32
}

// newFixture generates the dataset and the query sets.
func newFixture(seed int64) *fixture {
	kb := gen.Generate(gen.Wiki2017Sim())
	ix := text.BuildIndex(kb.Graph)
	f := &fixture{
		kb:    kb,
		name:  kb.Name,
		nodes: kb.Graph.NumNodes(),
		edges: kb.Graph.NumEdges(),
	}
	rng := rand.New(rand.NewSource(seed))

	// Queries are told apart by their normalized terms, as the result cache
	// keys them.
	measured := map[string]bool{}
	for knum := 2; knum <= 6; knum++ {
		for _, q := range gen.EfficiencyWorkload(kb, ix, knum, missPerKnum, missPopulationSeed+int64(knum)).Queries {
			if key := cacheKey(q); !measured[key] {
				measured[key] = true
				f.miss = append(f.miss, q)
			}
		}
	}
	base := rand.New(rand.NewSource(missPopulationSeed))
	base.Shuffle(len(f.miss), func(i, j int) { f.miss[i], f.miss[j] = f.miss[j], f.miss[i] })
	for lo := 0; lo < len(f.miss); lo += missBlock {
		blk := f.miss[lo:min(lo+missBlock, len(f.miss))]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	for knum := 2; knum <= 6; knum++ {
		for _, q := range gen.EfficiencyWorkload(kb, ix, knum, warmPerKnum, seed*31+int64(knum)).Queries {
			if key := cacheKey(q); !measured[key] {
				measured[key] = true
				f.warm = append(f.warm, q)
			}
		}
	}

	seen := map[string]bool{}
	for knum := 1; knum <= 2; knum++ {
		for _, q := range gen.EfficiencyWorkload(kb, ix, knum, 2*hotQueries, missPopulationSeed+10+int64(knum)).Queries {
			if key := cacheKey(q); !seen[key] && len(f.hot) < (knum*hotQueries)/2 {
				seen[key] = true
				f.hot = append(f.hot, q)
			}
		}
	}
	zipf := rand.NewZipf(rng, hotSkew, 1, uint64(len(f.hot)-1))
	f.hotSeq = make([]int32, hotStream)
	f.mixSeq = make([]int32, hotStream)
	for i := range f.hotSeq {
		f.hotSeq[i] = int32(zipf.Uint64())
		f.mixSeq[i] = int32(rng.Intn(len(f.hot)))
	}
	return f
}

// cacheKey is the query's normalized terms.
func cacheKey(q string) string { return strings.Join(text.QueryTerms(q), " ") }

// regenerate generates the dataset again for the set-ups after the window.
func (f *fixture) regenerate() { f.kb = gen.Generate(gen.Wiki2017Sim()) }

// release drops the generated graph, so the engine the server runs on is
// the only copy left when memory is measured.
func (f *fixture) release() { f.kb = nil }

// searchPath is the request URI of one search.
func searchPath(q string) string {
	return fmt.Sprintf("/v1/search?q=%s&k=%d", url.QueryEscape(q), topK)
}

// mutationGen produces the mutate-mix write stream: a fixed sequence of
// batches in which every remove_edge names an edge an earlier
// batch added and has not yet removed, every set_keywords rewrites a node
// an earlier op added (so no query term of the read stream can vanish),
// and add_node ids are predicted, so the replies can be checked.
type mutationGen struct {
	rng     *rand.Rand
	words   []string
	rels    []string
	nodes   int64 // node count after every op generated so far
	added   []int64
	live    []edge // added edges not yet removed
	batches int
	ops     int
}

type edge struct {
	from, to int64
	rel      string
}

func newMutationGen(nodes int) *mutationGen {
	rng := rand.New(rand.NewSource(mutPopulationSeed))
	return &mutationGen{
		rng:   rng,
		words: gen.NewVocab(400, rng).SampleN(400, rng),
		rels:  []string{"instance of", "main topic", "cites", "part of", "related to"},
		nodes: int64(nodes),
	}
}

func i64(v int64) *int64 { return &v }

func (m *mutationGen) phrase(n int) string {
	w := make([]string, n)
	for i := range w {
		w[i] = m.words[m.rng.Intn(len(m.words))]
	}
	return strings.Join(w, " ")
}

// next returns the following batch and the node id its add_node must get.
// Edges added in this batch become removable from the next one on.
func (m *mutationGen) next() (server.V1MutateRequest, int64) {
	publish := true
	req := server.V1MutateRequest{Publish: &publish}
	id := m.nodes
	req.Ops = append(req.Ops, server.MutateOp{Op: "add_node", Label: m.phrase(2), Desc: m.phrase(4)})
	m.nodes++
	m.added = append(m.added, id)
	var fresh []edge
	addEdge := func() {
		e := edge{from: m.rng.Int63n(m.nodes), to: m.rng.Int63n(m.nodes), rel: m.rels[m.rng.Intn(len(m.rels))]}
		req.Ops = append(req.Ops, server.MutateOp{Op: "add_edge", From: i64(e.from), To: i64(e.to), Rel: e.rel})
		fresh = append(fresh, e)
	}
	for i := 0; i < mutAddEdges; i++ {
		addEdge()
	}
	for i := 0; i < mutRetext; i++ {
		v := m.added[m.rng.Intn(len(m.added))]
		req.Ops = append(req.Ops, server.MutateOp{Op: "set_keywords", Node: i64(v), Label: m.phrase(2), Desc: m.phrase(3)})
	}
	for i := 0; i < mutReweights; i++ {
		w := m.rng.Float64()
		req.Ops = append(req.Ops, server.MutateOp{Op: "reweight", Node: i64(m.rng.Int63n(m.nodes)), Weight: &w})
	}
	for i := 0; i < mutRemoves; i++ {
		if len(m.live) == 0 {
			addEdge()
			continue
		}
		j := m.rng.Intn(len(m.live))
		e := m.live[j]
		m.live[j] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
		req.Ops = append(req.Ops, server.MutateOp{Op: "remove_edge", From: i64(e.from), To: i64(e.to), Rel: e.rel})
	}
	m.live = append(m.live, fresh...)
	m.batches++
	m.ops += len(req.Ops)
	return req, id
}
