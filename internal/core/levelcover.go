package core

import (
	"math/bits"
	"slices"

	"wikisearch/internal/graph"
)

// kwPos is a keyword node, by extraction position, with its containment
// mask: the unit the level-cover strategy classifies.
type kwPos struct {
	pos  int32
	mask uint64
}

// levelCover applies the keyword-co-occurrence level-cover strategy (§V-C)
// to a finished extraction and returns the kept nodes in extraction order;
// sc.keep[i] tells whether ex.order[i] was kept. Both live in sc and are
// valid until sc's next use.
//
// Keyword nodes are classified into levels by the number of query keywords
// they contain; the Central Node is always at the top. Walking levels from
// most-contributing down, a level's nodes are judged against the coverage
// accumulated from *previous* levels only — so nodes never cause pruning of
// nodes within their own level, preserving as many keyword nodes as
// possible. A keyword node is pruned when every keyword it contains is
// already covered; once coverage is complete, all remaining lower levels
// are pruned. Finally the hitting paths that served only pruned keyword
// nodes are dropped: a path node survives iff it is reachable from a kept
// keyword node (or is the Central Node or on a kept node's downstream path).
func (env *assembleEnv) levelCover(ex *extraction, sc *tdScratch) []graph.NodeID {
	all := allMask(env.q)

	// Classify keyword nodes (nodes containing ≥1 query keyword) by
	// containment count. The central node (position 0) seeds coverage
	// unconditionally.
	covered := env.contains(ex.central)
	kws := sc.kws[:0]
	for i, v := range ex.order[1:] {
		if m := env.contains(v); m != 0 {
			kws = append(kws, kwPos{int32(i + 1), m})
		}
	}
	sc.kws = kws
	slices.SortStableFunc(kws, func(a, b kwPos) int {
		return bits.OnesCount64(b.mask) - bits.OnesCount64(a.mask)
	})

	keep := sc.keep[:0]
	keep = append(keep, make([]bool, len(ex.order))...)
	sc.keep = keep
	keep[0] = true
	queue := append(sc.queue[:0], 0)
	for lo := 0; lo < len(kws); {
		cnt := bits.OnesCount64(kws[lo].mask)
		hi := lo
		for hi < len(kws) && bits.OnesCount64(kws[hi].mask) == cnt {
			hi++
		}
		if covered == all {
			break // prune all remaining (lower) levels
		}
		levelCoverage := covered
		for _, kn := range kws[lo:hi] {
			if kn.mask&^covered != 0 { // contributes an uncovered keyword
				keep[kn.pos] = true
				queue = append(queue, kn.pos)
				levelCoverage |= kn.mask
			}
		}
		covered = levelCoverage
		lo = hi
	}

	// Keep path nodes reachable from kept keyword nodes (and the central
	// node) along expansion edges — everything else served only pruned
	// keyword nodes. The edges are sorted by From, so each popped node
	// walks only its own run of out-steps. Every step's To was popped
	// from the extraction worklist, so it has a position.
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range ex.edgesFrom(ex.order[p]) {
			if t, _ := ex.pos.get(e.To); !keep[t] {
				keep[t] = true
				queue = append(queue, t)
			}
		}
	}
	sc.queue = queue

	out := sc.kept[:0]
	for i, v := range ex.order {
		if keep[i] {
			out = append(out, v)
		}
	}
	sc.kept = out
	return out
}
