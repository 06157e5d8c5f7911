package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"wikisearch/internal/graph"
)

// topDownScenario builds a random graph and a q-keyword query over it,
// deterministic in seed. The graph is denser than randomScenario's so
// extractions are large enough for a small MaxGraphNodes to truncate them.
func topDownScenario(t testing.TB, seed int64, q int) (Input, Params) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 30 + rng.Intn(90)
	m := 2*n + rng.Intn(4*n)
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), "")
	}
	rels := []graph.RelID{b.Rel("r0"), b.Rel("r1"), b.Rel("r2")}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rels[rng.Intn(3)])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]uint8, n)
	weights := make([]float64, n)
	for i := range levels {
		levels[i] = uint8(rng.Intn(3))
		weights[i] = float64(rng.Intn(1024)) / 1024
	}
	sources := make([][]graph.NodeID, q)
	for i := range sources {
		sz := 1 + rng.Intn(5)
		seen := map[graph.NodeID]bool{}
		for len(sources[i]) < sz {
			v := graph.NodeID(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				sources[i] = append(sources[i], v)
			}
		}
		sort.Slice(sources[i], func(a, b int) bool { return sources[i][a] < sources[i][b] })
	}
	return buildInput(g, levels, weights, sources...), Params{TopK: 1 + rng.Intn(12), Threads: 1, MaxLevel: 16}
}

// topDownVariants enumerates the knob combinations every equivalence test
// runs: Tnum 1 and GOMAXPROCS, level cover on and off, and the default
// extraction cap next to a cap of 8 nodes that truncates extractions.
func topDownVariants(p Params, each func(label string, p Params)) {
	for _, tn := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, noLC := range []bool{false, true} {
			for _, capN := range []int{0, 8} {
				v := p
				v.Threads, v.DisableLevelCover, v.MaxGraphNodes = tn, noLC, capN
				each(fmt.Sprintf("T=%d nolc=%v cap=%d", tn, noLC, capN), v)
			}
		}
	}
}

func answersEqual(t *testing.T, label string, want, got []*Answer) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: answers differ from the reference\nwant %s\n got %s", label, dumpAnswers(want), dumpAnswers(got))
	}
}

func dumpAnswers(as []*Answer) string {
	s := fmt.Sprintf("%d answers", len(as))
	for _, a := range as {
		s += fmt.Sprintf("\n  %+v", *a)
	}
	return s
}

// TestTopDownMatchesReference: the solo top-down stage returns answers
// reflect.DeepEqual to the map-based reference for q = 1..8, at Tnum 1 and
// GOMAXPROCS, with level cover on and off and with truncated extractions.
func TestTopDownMatchesReference(t *testing.T) {
	ss := NewSearchState()
	defer ss.Close()
	truncated, answers := 0, 0
	for q := 1; q <= 8; q++ {
		for seed := int64(0); seed < 12; seed++ {
			in, base := topDownScenario(t, 1000*int64(q)+seed, q)
			topDownVariants(base, func(label string, p Params) {
				label = fmt.Sprintf("q=%d seed=%d %s", q, seed, label)
				if _, err := ss.BottomUp(in, p); err != nil {
					t.Fatal(err)
				}
				s := &ss.st
				want := refTopDownGroup(s, &s.groups[0])
				got, err := s.topDown()
				if err != nil {
					t.Fatal(err)
				}
				answersEqual(t, label, want, got)
				answers += len(got)
				for _, vc := range s.groups[0].centrals {
					if refExtract(s, &s.groups[0], vc).truncated {
						truncated++
					}
				}
				s.in = Input{}
			})
		}
	}
	if truncated == 0 || answers == 0 {
		t.Fatalf("suite exercised %d truncated extractions and %d answers; want both > 0", truncated, answers)
	}
}

// TestTopDownBatchMatchesReference: every column group of a batched state
// assembles exactly the reference answers for that group, including
// groups with level cover disabled and rows wider than one matrix word.
func TestTopDownBatchMatchesReference(t *testing.T) {
	ss := NewSearchState()
	defer ss.Close()
	for seed := int64(0); seed < 30; seed++ {
		bin, _, _ := batchScenario(t, 3000+seed, 2+int(seed%4), seed%3 == 0)
		for j := range bin.Queries {
			bin.Queries[j].DisableLevelCover = (int(seed)+j)%2 == 1
		}
		for _, tn := range []int{1, runtime.GOMAXPROCS(0)} {
			for _, capN := range []int{0, 8} {
				p := Params{Threads: tn, MaxGraphNodes: capN}
				if err := ss.BottomUpBatch(bin, p); err != nil {
					t.Fatal(err)
				}
				s := &ss.st
				for gi := range s.groups {
					gr := &s.groups[gi]
					want := refTopDownGroup(s, gr)
					got, err := s.topDownGroup(gr)
					if err != nil {
						t.Fatal(err)
					}
					answersEqual(t, fmt.Sprintf("seed %d T=%d cap=%d group %d", seed, tn, capN, gi), want, got)
				}
				s.dropBatchRefs()
			}
		}
	}
}

// TestTopDownDynamicMatchesReference: CPU-Par-d's recovery over recorded
// parents, on the shared scratch, matches the map-based reference.
func TestTopDownDynamicMatchesReference(t *testing.T) {
	for q := 1; q <= 8; q++ {
		for seed := int64(0); seed < 6; seed++ {
			in, base := topDownScenario(t, 5000+1000*int64(q)+seed, q)
			topDownVariants(base, func(label string, p Params) {
				p = p.Defaults()
				pool := newSearchPool(p.Threads)
				defer pool.Close()
				s := newDynState(in, p, pool)
				if _, err := s.bottomUp(); err != nil {
					t.Fatal(err)
				}
				want := refTopDownDyn(s)
				got, err := s.topDown()
				if err != nil {
					t.Fatal(err)
				}
				answersEqual(t, fmt.Sprintf("q=%d seed=%d %s", q, seed, label), want, got)
			})
		}
	}
}

// starScenario is a graph in which `centrals` hubs each link both keyword
// nodes, so all hubs become Central Nodes at level 1: the candidate count
// grows with centrals while k stays fixed.
func starScenario(t testing.TB, centrals int) Input {
	t.Helper()
	b := graph.NewBuilder()
	a := b.AddNode("a", "")
	c := b.AddNode("c", "")
	rel := b.Rel("r")
	for i := 0; i < centrals; i++ {
		h := b.AddNode(fmt.Sprintf("h%d", i), "")
		b.AddEdge(h, a, rel)
		b.AddEdge(c, h, rel)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(i%7+1) / 8
	}
	return buildInput(g, make([]uint8, n), weights, []graph.NodeID{a}, []graph.NodeID{c})
}

// TestSearchTopDownAllocationFree: on a warm SearchState the top-down
// stage allocates only the answers it returns. The whole search's
// allocation count must not grow with the number of candidates when k is
// fixed, and stays within a small constant plus a few objects per answer.
func TestSearchTopDownAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const k = 3
	for _, tn := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", tn), func(t *testing.T) {
			ss := NewSearchState()
			defer ss.Close()
			p := Params{TopK: k, Threads: tn}
			var counts []float64
			for _, centrals := range []int{16, 128, 1024} {
				in := starScenario(t, centrals)
				for i := 0; i < 3; i++ { // warm buffers, workers and caps
					res, err := ss.Search(in, p)
					if err != nil {
						t.Fatal(err)
					}
					if res.CentralCandidates != centrals || len(res.Answers) != k {
						t.Fatalf("%d candidates and %d answers, want %d and %d",
							res.CentralCandidates, len(res.Answers), centrals, k)
					}
				}
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := ss.Search(in, p); err != nil {
						t.Fatal(err)
					}
				})
				counts = append(counts, allocs)
			}
			for i := 1; i < len(counts); i++ {
				if counts[i] > counts[0] {
					t.Fatalf("allocations grow with candidates at k=%d: %v for 16/128/1024 candidates", k, counts)
				}
			}
			if limit := float64(16 + 5*k); counts[0] > limit {
				t.Fatalf("warm search allocates %.1f objects for %d answers, want ≤ %.0f", counts[0], k, limit)
			}
		})
	}
}

// BenchmarkTopDown measures the top-down stage alone on a warm state over
// a generated graph: the scratch-based stage against the map-based
// reference it must match.
func BenchmarkTopDown(b *testing.B) {
	in, p := benchScenario(b)
	for _, tn := range []int{1, 4} {
		p.Threads = tn
		ss := NewSearchState()
		if _, err := ss.BottomUp(in, p); err != nil {
			b.Fatal(err)
		}
		s := &ss.st
		gr := &s.groups[0]
		b.Run(fmt.Sprintf("current/Tnum=%d", tn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.topDown(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(gr.centrals)), "candidates")
		})
		if tn == 1 { // the reference is sequential
			b.Run("reference", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					refTopDownGroup(s, gr)
				}
				b.ReportMetric(float64(len(gr.centrals)), "candidates")
			})
		}
		ss.Close()
	}
}
