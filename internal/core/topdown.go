package core

import (
	"cmp"
	"math/bits"
	"slices"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// extraction is one Central Graph being recovered from the node-keyword
// matrix (Algorithm 3). Nodes carry the mask of keywords whose hitting
// paths traverse them; edges are expansion steps (parent → child, flowing
// keyword sources → Central Node). All keyword masks are local to the
// owning query's column group: bit i means group column off+i.
//
// Every buffer is reused across extractions and reset in O(1): order,
// masks and edges are truncated and pos starts a new stamp, so a warm
// extraction touches no map and nothing sized by the graph.
type extraction struct {
	central graph.NodeID
	depth   int
	order   []graph.NodeID // insertion order, central first
	masks   []uint64       // masks[i]: keyword-path membership of order[i], never 0
	pos     nodeIndex      // node id → index in order
	edges   []AnswerEdge   // expansion steps; canonical and deduplicated after finish
}

// reset prepares ex for a new Central Graph, reusing its buffers.
func (ex *extraction) reset(central graph.NodeID, local uint64) {
	ex.central = central
	ex.depth = 0
	ex.order = append(ex.order[:0], central)
	ex.masks = append(ex.masks[:0], local)
	ex.edges = ex.edges[:0]
	ex.pos.reset()
	ex.pos.put(ex.pos.probe(central), central, 0)
}

// addEdge records the expansion step from → to for the keyword mask kw.
// forward tells whether the underlying directed edge is stored from → to.
// Duplicates are merged by finish.
func (ex *extraction) addEdge(from, to graph.NodeID, rel graph.RelID, forward bool, kw uint64) {
	ex.edges = append(ex.edges, AnswerEdge{From: from, To: to, Rel: rel, Forward: forward, Keywords: kw})
}

// join puts v on keyword bit's hitting paths. It returns bit when v newly
// joins them, so the caller pushes (v, bit) on the worklist, and 0 when v
// already carried bit or the extraction is full.
func (ex *extraction) join(v graph.NodeID, bit uint64, maxNodes int) uint64 {
	slot := ex.pos.probe(v)
	if i, ok := ex.pos.at(slot); ok {
		if ex.masks[i]&bit != 0 {
			return 0
		}
		ex.masks[i] |= bit
		return bit
	}
	if len(ex.order) >= maxNodes {
		return 0 // truncated: the step stays recorded, assembly drops it
	}
	ex.pos.put(slot, v, int32(len(ex.order)))
	ex.order = append(ex.order, v)
	ex.masks = append(ex.masks, bit)
	return bit
}

// finish sorts the recorded steps into the canonical (From, To, Rel,
// Forward) order and merges duplicates, OR-ing their keyword masks.
func (ex *extraction) finish() {
	slices.SortFunc(ex.edges, compareEdges)
	out := ex.edges[:0]
	for _, e := range ex.edges {
		if n := len(out); n > 0 && compareEdges(out[n-1], e) == 0 {
			out[n-1].Keywords |= e.Keywords
			continue
		}
		out = append(out, e)
	}
	ex.edges = out
}

// compareEdges is the canonical answer edge order: (From, To, Rel), then
// forward steps before backward ones. Keyword masks are not compared.
func compareEdges(a, b AnswerEdge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	switch {
	case a.Forward == b.Forward:
		return 0
	case a.Forward:
		return -1
	}
	return 1
}

// edgesFrom returns the run of ex's finished edges whose From is v.
func (ex *extraction) edgesFrom(v graph.NodeID) []AnswerEdge {
	lo, _ := slices.BinarySearchFunc(ex.edges, v, func(e AnswerEdge, v graph.NodeID) int { return cmp.Compare(e.From, v) })
	hi := lo
	for hi < len(ex.edges) && ex.edges[hi].From == v {
		hi++
	}
	return ex.edges[lo:hi]
}

// nodeIndex is an open-addressing map from node id to an extraction
// position, sized by the largest extraction it has held (never by the
// graph). Slots carry the stamp of the extraction that wrote them, so
// reset is a stamp increment instead of a clear.
type nodeIndex struct {
	slots []indexSlot // power-of-two length, at most half full
	shift uint        // 32 − log2(len(slots)), for Fibonacci hashing
	stamp uint32      // current generation; slots with another stamp are empty
	n     int
}

type indexSlot struct {
	key   graph.NodeID
	val   int32
	stamp uint32
}

func (t *nodeIndex) reset() {
	t.n = 0
	t.stamp++
	if t.stamp == 0 { // wrapped: a zeroed table makes every old stamp stale
		clear(t.slots)
		t.stamp = 1
	}
	if t.slots == nil {
		t.alloc(64)
	}
}

func (t *nodeIndex) alloc(size int) {
	t.slots = make([]indexSlot, size)
	t.shift = 32
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// probe returns v's slot, or the empty slot where v would be inserted.
func (t *nodeIndex) probe(v graph.NodeID) int {
	mask := len(t.slots) - 1
	i := int((uint32(v) * 0x9E3779B9) >> t.shift)
	for {
		s := &t.slots[i]
		if s.stamp != t.stamp || s.key == v {
			return i
		}
		i = (i + 1) & mask
	}
}

// at returns the position held by a probed slot, if it is occupied.
func (t *nodeIndex) at(slot int) (int32, bool) {
	s := &t.slots[slot]
	return s.val, s.stamp == t.stamp
}

// get returns v's position, if v is indexed.
func (t *nodeIndex) get(v graph.NodeID) (int32, bool) { return t.at(t.probe(v)) }

// put stores v → val in the empty slot probe returned for v.
func (t *nodeIndex) put(slot int, v graph.NodeID, val int32) {
	t.slots[slot] = indexSlot{key: v, val: val, stamp: t.stamp}
	t.n++
	if 2*t.n > len(t.slots) {
		old := t.slots
		t.alloc(2 * len(old))
		for _, s := range old {
			if s.stamp == t.stamp {
				t.slots[t.probe(s.key)] = s
			}
		}
	}
}

// workItem is a (node, fresh keyword bits) pair on the extraction worklist.
type workItem struct {
	node graph.NodeID
	bits uint64
}

// parentStep is a neighbour of a popped node that is its parent on the
// hitting paths of the keywords in bits.
type parentStep struct {
	node    graph.NodeID
	rel     graph.RelID
	forward bool
	bits    uint64
}

// tdScratch is one worker's reusable top-down buffers: the extraction and
// everything the level cover and scoring of a Central Graph touch. A warm
// top-down stage allocates only the answers it returns.
type tdScratch struct {
	ex      extraction
	work    []workItem
	parents []parentStep   // extract: the popped node's parents
	kws     []kwPos        // levelCover: keyword nodes by containment
	keep    []bool         // levelCover: keep[i] ⇔ order[i] survives
	queue   []int32        // levelCover: BFS queue of positions
	kept    []graph.NodeID // levelCover: surviving nodes, extraction order
	sorted  []graph.NodeID // score: kept nodes in ascending id order
}

// extract recovers gr's Central Graph centered at vc using the hitting-level
// heuristics of Theorem V.4: vn is a parent of vf on keyword i's hitting
// path iff h_i(vf) = 1 + max(a_n, h_i(vn)) when vf contains keywords, or
// 1 + max(a_n, h_i(vn), a_f − 1) when it does not. All qualifying parents
// are collected, which is what yields multi-path answers. Every matrix read
// and keyword test is confined to the group's column window, so extraction
// from a batched state is identical to the query's solo extraction. The
// returned extraction lives in sc and is valid until sc's next use.
//
// Each popped node's adjacency is scanned once for all of its pending
// keywords. The parents are then joined keyword by keyword, each keyword
// in adjacency order, so the insertion order (and with it which nodes a
// MaxGraphNodes truncation drops) is that of one scan per keyword.
func (s *state) extract(sc *tdScratch, gr *group, vc graph.NodeID) *extraction {
	q := gr.q
	off := gr.off
	local := allMask(q)
	maxNodes := s.p.MaxGraphNodes
	ex := &sc.ex
	ex.reset(vc, local)
	for i := 0; i < q; i++ {
		if h := s.m.Get(vc, off+i); h != Infinity && int(h) > ex.depth {
			ex.depth = int(h) // d(C), Eq. 1: the largest hitting level
		}
	}
	var hif [MaxKeywords]uint8
	work := append(sc.work[:0], workItem{vc, local})
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		vf := it.node
		var pend uint64
		for b := it.bits; b != 0; b &= b - 1 {
			i := bits.TrailingZeros64(b)
			// A keyword source (level 0) starts i's hitting paths.
			if h := s.m.Get(vf, off+i); h != 0 {
				hif[i] = h
				pend |= 1 << uint(i)
			}
		}
		if pend == 0 {
			continue
		}
		pf := parentFilter{
			s: s, gr: gr, pend: pend, hif: &hif,
			af:          int(s.in.Levels[vf]),
			hasKeywords: s.contains[vf]&gr.mask != 0,
		}
		parents := sc.parents[:0]
		dst, rels := s.in.G.OutEdges(vf)
		for j, vn := range dst {
			if b := pf.bits(vn); b != 0 {
				parents = append(parents, parentStep{vn, rels[j], false, b})
			}
		}
		src, rels := s.in.G.InEdges(vf)
		for j, vn := range src {
			if b := pf.bits(vn); b != 0 {
				parents = append(parents, parentStep{vn, rels[j], true, b})
			}
		}
		sc.parents = parents
		for _, p := range parents {
			ex.addEdge(p.node, vf, p.rel, p.forward, p.bits)
		}
		for b := pend; b != 0; b &= b - 1 {
			bit := b & -b
			for _, p := range parents {
				if p.bits&bit != 0 {
					if fresh := ex.join(p.node, bit, maxNodes); fresh != 0 {
						work = append(work, workItem{p.node, fresh})
					}
				}
			}
		}
	}
	sc.work = work[:0] // keep the grown capacity
	ex.finish()
	return ex
}

// parentFilter tests neighbours of one popped node vf against Theorem
// V.4's parent condition for each of vf's pending keywords.
type parentFilter struct {
	s           *state
	gr          *group
	pend        uint64              // keywords whose paths continue past vf
	hif         *[MaxKeywords]uint8 // vf's hitting levels, valid for pend
	af          int                 // vf's activation level
	hasKeywords bool                // vf contains a query keyword
}

// bits returns the keywords of pf.pend for which vn is a parent of vf.
func (pf *parentFilter) bits(vn graph.NodeID) uint64 {
	s, gr := pf.s, pf.gr
	an := -1 // vn's activation level, read on first use
	var out uint64
	for b := pf.pend; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		hin := s.m.Get(vn, gr.off+i)
		hif := int(pf.hif[i])
		if hin == Infinity || int(hin) >= hif {
			continue // the target below is at least hin+1
		}
		if an < 0 {
			an = int(s.in.Levels[vn])
		}
		target := 1 + max(an, int(hin))
		if !pf.hasKeywords {
			target = 1 + max(target-1, pf.af-1)
		}
		if hif != target {
			continue
		}
		out |= 1 << uint(i)
	}
	// A node identified central before the expansion level became
	// unavailable for expansion (§III-B), so it cannot have been a real
	// parent; without this filter extraction could claim paths the search
	// never traversed.
	if out != 0 {
		if ca := int(gr.centralAt[vn]); ca >= 0 {
			for b := out; b != 0; b &= b - 1 {
				if i := bits.TrailingZeros64(b); ca <= int(pf.hif[i])-1 {
					out &^= 1 << uint(i)
				}
			}
		}
	}
	return out
}

// candidate is a pruned, scored Central Graph awaiting final selection.
// It keeps only what selection reads. Its node-id set is recovered only
// for the few candidates selection examines, and the Answer payload only
// for the winners.
type candidate struct {
	score  float64
	depth  int
	rank   int            // identification order, for deterministic ties
	covers bool           // the kept nodes contain every keyword
	ids    []graph.NodeID // kept node ids, ascending; nil until examined
}

// assembleEnv carries the per-query context the top-down stage needs to
// prune and score an extracted Central Graph. Both the matrix-based and the
// dynamic (lock-based) variants assemble answers through it; contains and
// row present the query's own column window, so a batched group assembles
// exactly as its solo search would.
type assembleEnv struct {
	q            int
	keywords     []uint64 // keyword masks of the whole state
	shift        uint     // the query's first column in keywords
	weights      []float64
	lambda       float64
	row          func(v graph.NodeID, dst []uint8) // hitting levels of v
	noLevelCover bool
}

// contains returns v's query-local keyword mask.
func (env *assembleEnv) contains(v graph.NodeID) uint64 {
	return (env.keywords[v] >> env.shift) & allMask(env.q)
}

// envGroup builds gr's assembly context over the shared state.
func (s *state) envGroup(gr *group) *assembleEnv {
	return &assembleEnv{
		q:            gr.q,
		keywords:     s.contains,
		shift:        uint(gr.off),
		weights:      s.in.Weights,
		lambda:       s.p.Lambda,
		row:          func(v graph.NodeID, dst []uint8) { s.m.RowSlice(v, gr.off, dst) },
		noLevelCover: gr.noLevelCover,
	}
}

// prune applies the level-cover strategy unless it is disabled, returning
// the kept nodes in extraction order and, under level cover, the per
// position keep flags (nil means every node is kept).
func (env *assembleEnv) prune(ex *extraction, sc *tdScratch) ([]graph.NodeID, []bool) {
	if env.noLevelCover {
		return ex.order, nil
	}
	return env.levelCover(ex, sc), sc.keep
}

// score prunes and scores an extraction without building its Answer.
func (env *assembleEnv) score(ex *extraction, rank int, sc *tdScratch) candidate {
	kept, _ := env.prune(ex, sc)
	ids := append(sc.sorted[:0], kept...)
	sc.sorted = ids
	slices.Sort(ids)
	// Summed in canonical order — central node first, then ascending id —
	// exactly as the Answer lists its nodes: bit-stable.
	var sumW float64
	sumW += env.weights[ex.central]
	var cov uint64
	for _, v := range ids {
		cov |= env.contains(v)
		if v != ex.central {
			sumW += env.weights[v]
		}
	}
	return candidate{
		score:  Score(ex.depth, sumW, env.lambda),
		depth:  ex.depth,
		rank:   rank,
		covers: cov == allMask(env.q),
	}
}

// answer builds the Answer payload of a selected candidate from its
// re-extraction (extraction is deterministic, so ex is the graph c scored).
// Nodes are in canonical order — central first, then ascending id — and
// edges in the canonical order finish left them in, so answers are
// identical regardless of thread count or scheduling.
func (env *assembleEnv) answer(ex *extraction, c *candidate, sc *tdScratch) *Answer {
	kept, keep := env.prune(ex, sc)
	q := env.q
	nodes := make([]AnswerNode, 0, len(kept))
	rows := make([]uint8, len(kept)*q) // one backing array for all rows
	add := func(v graph.NodeID) {
		ki := len(nodes)
		row := rows[ki*q : (ki+1)*q : (ki+1)*q]
		env.row(v, row)
		i, _ := ex.pos.get(v)
		nodes = append(nodes, AnswerNode{ID: v, Contains: env.contains(v), OnPaths: ex.masks[i], HitLevels: row})
	}
	add(ex.central)
	for _, v := range c.ids {
		if v != ex.central {
			add(v)
		}
	}
	isKept := func(v graph.NodeID) bool {
		i, ok := ex.pos.get(v)
		return ok && (keep == nil || keep[i])
	}
	n := 0
	for _, e := range ex.edges {
		if isKept(e.From) && isKept(e.To) {
			n++
		}
	}
	edges := make([]AnswerEdge, 0, n)
	for _, e := range ex.edges {
		if isKept(e.From) && isKept(e.To) {
			edges = append(edges, e)
		}
	}
	return &Answer{
		Central:     ex.central,
		Depth:       ex.depth,
		Score:       c.score,
		Nodes:       nodes,
		Edges:       edges,
		PrunedNodes: len(ex.order) - len(kept),
	}
}

// tdStage is the reusable scratch of a top-down stage: one tdScratch per
// worker plus the candidate and selection buffers. Only run touches it;
// worker w dereferences only workers[w], and the pool join publishes the
// results before anyone else runs.
type tdStage struct {
	//wikisearch:singlewriter
	workers []tdScratch
	//wikisearch:singlewriter
	cands []candidate
	//wikisearch:singlewriter
	ordered []*candidate
	//wikisearch:singlewriter
	ids []graph.NodeID // arena of the examined candidates' node-id sets
}

// run is stage two of Algorithm 1 for one query: extract, prune and score
// every Central Graph, select the top k, and build the winners' answers.
// Extraction and pruning of different Central Graphs run in parallel with
// dynamic scheduling ("we let one thread recover one or more Central
// Graphs", §V-C), each worker on its own retained scratch. extract must be
// deterministic: selection extracts the candidates it examines again to
// recover their node sets, and the winners are extracted once more to
// build their payload, so nothing is kept per candidate beyond its score.
//
//wikisearch:writer
func (st *tdStage) run(pool *parallel.Pool, p Params, centrals []graph.NodeID, k int, env *assembleEnv,
	extract func(sc *tdScratch, vc graph.NodeID) *extraction) ([]*Answer, error) {
	if w := pool.Workers(); cap(st.workers) < w {
		st.workers = make([]tdScratch, w)
	} else {
		st.workers = st.workers[:w]
	}
	if cap(st.cands) < len(centrals) {
		st.cands = make([]candidate, len(centrals))
	} else {
		st.cands = st.cands[:len(centrals)]
		clear(st.cands) // a cancelled slot stays zero: not covering
	}
	pool.ForWorker(len(centrals), func(w, i int) {
		if cancelled(p) != nil {
			return // drained quickly; the zero candidate is dropped below
		}
		sc := &st.workers[w]
		st.cands[i] = env.score(extract(sc, centrals[i]), i, sc)
	})
	if err := cancelled(p); err != nil {
		return nil, err
	}
	st.ids = st.ids[:0]
	sc := &st.workers[0]
	win := selectTopK(st.ordered, st.cands, k, func(c *candidate) {
		kept, _ := env.prune(extract(sc, centrals[c.rank]), sc)
		start := len(st.ids)
		st.ids = append(st.ids, kept...)
		c.ids = st.ids[start:len(st.ids):len(st.ids)]
		slices.Sort(c.ids)
	})
	st.ordered = win[:0]
	if len(win) == 0 {
		return nil, nil
	}
	out := make([]*Answer, len(win))
	pool.ForWorker(len(win), func(w, i int) {
		c := win[i]
		sc := &st.workers[w]
		out[i] = env.answer(extract(sc, centrals[c.rank]), c, sc)
	})
	return out, nil
}

// topDown runs stage two of Algorithm 1 for a solo search.
func (s *state) topDown() ([]*Answer, error) {
	return s.topDownGroup(&s.groups[0])
}

// topDownGroup runs stage two of Algorithm 1 for one query's column group
// on the state's retained top-down scratch.
func (s *state) topDownGroup(gr *group) ([]*Answer, error) {
	return s.td.run(s.pool, s.p, gr.centrals, gr.topK, s.envGroup(gr),
		func(sc *tdScratch, vc graph.NodeID) *extraction { return s.extract(sc, gr, vc) })
}

// selectTopK ranks candidates by score and drops (a) candidates that do not
// cover every keyword (defensive: only possible under extraction caps) and
// (b) Central Graphs that completely contain a better-ranked, smaller
// answer ("we remove the Central Graph that completely contains smaller
// ones", §VI-B), then returns the best k, best first, in buf's storage.
// Candidates are examined best first until k are kept; fill, when not nil,
// sets the node-id set of each examined candidate.
func selectTopK(buf []*candidate, cands []candidate, k int, fill func(c *candidate)) []*candidate {
	ordered := buf[:0]
	for i := range cands {
		if cands[i].covers {
			ordered = append(ordered, &cands[i])
		}
	}
	slices.SortFunc(ordered, func(a, b *candidate) int {
		switch {
		case a.score != b.score:
			if a.score < b.score {
				return -1
			}
			return 1
		case a.depth != b.depth:
			return a.depth - b.depth
		}
		return a.rank - b.rank
	})
	n := 0 // ordered[:n] are the winners so far; n never passes the cursor
	for _, c := range ordered {
		if n >= k {
			break
		}
		if fill != nil {
			fill(c)
		}
		superset := false
		for _, w := range ordered[:n] {
			if len(w.ids) < len(c.ids) && containsAll(c.ids, w.ids) {
				superset = true
				break
			}
		}
		if !superset {
			ordered[n] = c
			n++
		}
	}
	return ordered[:n]
}

// containsAll reports whether the ascending id set super contains every id
// of the ascending set sub: one merge pass over both.
func containsAll(super, sub []graph.NodeID) bool {
	i := 0
	for _, v := range sub {
		for i < len(super) && super[i] < v {
			i++
		}
		if i == len(super) || super[i] != v {
			return false
		}
		i++
	}
	return true
}

// Search runs the full two-stage algorithm: CPU-Par when p.Threads > 1, the
// sequential baseline when p.Threads == 1. It is the one-shot entry point;
// repeated callers should hold a SearchState to reuse buffers and workers.
func Search(in Input, p Params) (*Result, error) {
	ss := NewSearchState()
	defer ss.Close()
	return ss.Search(in, p)
}
