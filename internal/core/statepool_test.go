package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"wikisearch/internal/graph"
)

// TestKernelsEquivalent: the flattened expansion kernel and the per-column
// reference kernel return byte-identical results, at Tnum=1 and at
// Tnum=GOMAXPROCS.
func TestKernelsEquivalent(t *testing.T) {
	threads := []int{1, runtime.GOMAXPROCS(0)}
	for seed := int64(400); seed < 440; seed++ {
		in, p := randomScenario(t, seed)
		for _, tn := range threads {
			pf := p
			pf.Threads = tn
			pf.Kernel = KernelFlat
			flat, err := Search(in, pf)
			if err != nil {
				t.Fatal(err)
			}
			pr := pf
			pr.Kernel = KernelReference
			ref, err := Search(in, pr)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("seed %d flat vs reference T=%d", seed, tn), ref, flat)
			if flat.Profile.EdgesScanned > ref.Profile.EdgesScanned {
				t.Fatalf("seed %d T=%d: flat kernel scanned %d edges > reference %d",
					seed, tn, flat.Profile.EdgesScanned, ref.Profile.EdgesScanned)
			}
		}
	}
}

// TestPooledStateReuse: one SearchState serving many queries — different
// graph sizes, keyword counts, thread counts, with repeats — returns exactly
// what a fresh single-use state returns for every one of them. This is the
// equivalence property the engine's state pool rests on.
func TestPooledStateReuse(t *testing.T) {
	ss := NewSearchState()
	defer ss.Close()
	threads := []int{1, 2, 4, 8}
	for i := 0; i < 120; i++ {
		// 30 distinct scenarios, each served 4 times from the warm state at
		// varying thread counts (so the pool is also rebuilt under reuse).
		seed := int64(500 + i%30)
		in, p := randomScenario(t, seed)
		p.Threads = threads[(i/30+i)%len(threads)]
		got, err := ss.Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("query %d (seed %d, T=%d)", i, seed, p.Threads), fresh, got)
	}
}

// TestPooledStateKernelReuse repeats the reuse property with the reference
// kernel interleaved, so kernel switching on a warm state is also covered.
func TestPooledStateKernelReuse(t *testing.T) {
	ss := NewSearchState()
	defer ss.Close()
	for i := 0; i < 40; i++ {
		in, p := randomScenario(t, int64(700+i%10))
		p.Threads = 1 + i%4
		if i%2 == 1 {
			p.Kernel = KernelReference
		}
		got, err := ss.Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("query %d", i), fresh, got)
	}
}

// TestSearchPathAllocationFree is the zero-allocation guard: on a warm
// SearchState, the whole kernel path — parameter resolution, state reset,
// source initialization and every bottom-up level — performs zero heap
// allocations, sequentially and with a worker pool.
func TestSearchPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	for _, tn := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", tn), func(t *testing.T) {
			in, p := randomScenario(t, 7)
			p.Threads = tn
			ss := NewSearchState()
			defer ss.Close()
			// Tracing on: the span record path must be allocation-free too.
			ss.SetTracing(true)
			for i := 0; i < 3; i++ { // warm buffers, workers and caps
				if _, err := ss.Search(in, p); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := ss.BottomUp(in, p); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm bottom-up stage allocates %.1f times per query, want 0", allocs)
			}
		})
	}
}

// TestSearchStateClose: a closed state's pool degrades to serial execution
// rather than failing, and Close is idempotent.
func TestSearchStateClose(t *testing.T) {
	ss := NewSearchState()
	in, p := randomScenario(t, 11)
	p.Threads = 4
	want, err := ss.Search(in, p)
	if err != nil {
		t.Fatal(err)
	}
	ss.Close()
	ss.Close()
	got, err := Search(in, p)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "after close", want, got)
}

// TestDroppedSearchStateCollected: a state dropped without Close — what the
// engine's sync.Pool does on eviction — is garbage collected and its pool's
// helper goroutines exit, even though the pool records into the state's own
// trace buffer and so forms a reference cycle with it.
func TestDroppedSearchStateCollected(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	ref, helpers := dropStartedState(t)
	if helpers <= base {
		t.Fatalf("pool never started helpers (%d goroutines, baseline %d)", helpers, base)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ref.Value() != nil || runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("dropped state collected=%v, goroutines %d (baseline %d)",
				ref.Value() == nil, runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// dropStartedState runs one multi-worker search on a fresh state and drops
// it, returning only a weak reference plus the goroutine count while its
// helpers were parked.
func dropStartedState(t *testing.T) (weak.Pointer[SearchState], int) {
	ss := NewSearchState()
	ss.ensurePool(4)
	ss.pool.For(1024, func(int) {})
	in, p := randomScenario(t, 11)
	p.Threads = 4
	if _, err := ss.Search(in, p); err != nil {
		t.Fatal(err)
	}
	return weak.Make(ss), runtime.NumGoroutine()
}

// TestGrowingGraphAllocationFree: a warm state serving a graph that gains one
// node per query — what live mutation does on every publish — re-dimensions
// without allocating once its per-node buffers have grown with headroom.
func TestGrowingGraphAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	in, p := randomScenario(t, 7)
	db := graph.NewDeltaBuilder(in.G)
	inputs := []Input{in}
	for i := 0; i < 12; i++ {
		db.AddNode(fmt.Sprintf("added%d", i), "")
		grown := in
		grown.G = db.Overlay()
		grown.Levels = append(slices.Clone(in.Levels), make([]uint8, i+1)...)
		grown.Weights = append(slices.Clone(in.Weights), make([]float64, i+1)...)
		inputs = append(inputs, grown)
	}
	ss := NewSearchState()
	defer ss.Close()
	// Warm on the base graph, then on the first growth step.
	for _, in := range inputs[:2] {
		if _, err := ss.BottomUp(in, p); err != nil {
			t.Fatal(err)
		}
	}
	next := 2
	allocs := testing.AllocsPerRun(len(inputs)-next-1, func() {
		if _, err := ss.BottomUp(inputs[next], p); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("bottom-up on a graph grown by one node allocates %.1f times per query, want 0", allocs)
	}
}
