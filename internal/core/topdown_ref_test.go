package core

import (
	"math/bits"
	"slices"

	"wikisearch/internal/graph"
)

// This file keeps the original map-based top-down stage as the reference
// oracle for the scratch-based one in topdown.go and levelcover.go: one
// map of path masks and one edge-dedup map per extraction, a level-cover
// BFS that rescans the edge list for every popped node, and a full Answer
// assembled for every candidate before selection. It is deliberately
// simple and slow; the TestTopDown* suite requires the production stage to
// return answers reflect.DeepEqual to it.

type refExtraction struct {
	central   graph.NodeID
	depth     int
	order     []graph.NodeID
	onPaths   map[graph.NodeID]uint64
	edges     []AnswerEdge
	edgeIndex map[refEdgeKey]int
	truncated bool
}

type refEdgeKey struct {
	from, to graph.NodeID
	rel      graph.RelID
	forward  bool
}

func newRefExtraction(central graph.NodeID, local uint64) *refExtraction {
	return &refExtraction{
		central:   central,
		order:     []graph.NodeID{central},
		onPaths:   map[graph.NodeID]uint64{central: local},
		edgeIndex: map[refEdgeKey]int{},
	}
}

func (ex *refExtraction) addEdge(from, to graph.NodeID, rel graph.RelID, forward bool, bits uint64) {
	k := refEdgeKey{from, to, rel, forward}
	if i, ok := ex.edgeIndex[k]; ok {
		ex.edges[i].Keywords |= bits
		return
	}
	ex.edgeIndex[k] = len(ex.edges)
	ex.edges = append(ex.edges, AnswerEdge{From: from, To: to, Rel: rel, Forward: forward, Keywords: bits})
}

// refExtract is Theorem V.4's extraction over gr's column window.
func refExtract(s *state, gr *group, vc graph.NodeID) *refExtraction {
	q := gr.q
	off := gr.off
	local := allMask(q)
	ex := newRefExtraction(vc, local)
	for i := 0; i < q; i++ {
		if h := s.m.Get(vc, off+i); h != Infinity && int(h) > ex.depth {
			ex.depth = int(h)
		}
	}
	work := []workItem{{vc, local}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		vf := it.node
		af := int(s.in.Levels[vf])
		fHasKeywords := s.contains[vf]&gr.mask != 0
		for i := 0; i < q; i++ {
			if it.bits&(1<<uint(i)) == 0 {
				continue
			}
			hif := int(s.m.Get(vf, off+i))
			if hif == 0 {
				continue
			}
			s.in.G.ForEachNeighbor(vf, func(vn graph.NodeID, rel graph.RelID, out bool) {
				hin := s.m.Get(vn, off+i)
				if hin == Infinity {
					return
				}
				an := int(s.in.Levels[vn])
				target := 1 + max(an, int(hin))
				if !fHasKeywords {
					target = 1 + max(target-1, af-1)
				}
				if hif != target {
					return
				}
				if ca := gr.centralAt[vn]; ca >= 0 && int(ca) <= hif-1 {
					return
				}
				ex.addEdge(vn, vf, rel, !out, uint64(1)<<uint(i))
				prev, known := ex.onPaths[vn]
				fresh := (uint64(1) << uint(i)) &^ prev
				if fresh == 0 {
					return
				}
				if !known {
					if len(ex.order) >= s.p.MaxGraphNodes {
						ex.truncated = true
						return
					}
					ex.order = append(ex.order, vn)
				}
				ex.onPaths[vn] = prev | fresh
				work = append(work, workItem{vn, fresh})
			})
		}
	}
	return ex
}

// refRecover is CPU-Par-d's walk over the recorded parents.
func refRecover(s *dynState, vc graph.NodeID) *refExtraction {
	q := len(s.in.Sources)
	ex := newRefExtraction(vc, allMask(q))
	for i := 0; i < q; i++ {
		if h, ok := s.hitLevel(vc, i); ok && int(h) > ex.depth {
			ex.depth = int(h)
		}
	}
	work := []workItem{{vc, allMask(q)}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		vf := it.node
		nd := &s.nodes[vf]
		for i := 0; i < q; i++ {
			if it.bits&(1<<uint(i)) == 0 {
				continue
			}
			nd.mu.Lock()
			var parents []dynParent
			if nd.rec != nil {
				parents = nd.rec.parents[i]
			}
			nd.mu.Unlock()
			for _, p := range parents {
				ex.addEdge(p.node, vf, p.rel, p.forward, uint64(1)<<uint(i))
				prev, known := ex.onPaths[p.node]
				fresh := (uint64(1) << uint(i)) &^ prev
				if fresh == 0 {
					continue
				}
				if !known {
					if len(ex.order) >= s.p.MaxGraphNodes {
						ex.truncated = true
						continue
					}
					ex.order = append(ex.order, p.node)
				}
				ex.onPaths[p.node] = prev | fresh
				work = append(work, workItem{p.node, fresh})
			}
		}
	}
	return ex
}

// refEnv is the per-query assembly context of the reference stage.
type refEnv struct {
	q            int
	contains     func(v graph.NodeID) uint64
	weights      []float64
	lambda       float64
	row          func(v graph.NodeID, dst []uint8)
	noLevelCover bool
}

func refEnvGroup(s *state, gr *group) *refEnv {
	off := uint(gr.off)
	local := allMask(gr.q)
	return &refEnv{
		q:            gr.q,
		contains:     func(v graph.NodeID) uint64 { return (s.contains[v] >> off) & local },
		weights:      s.in.Weights,
		lambda:       s.p.Lambda,
		row:          func(v graph.NodeID, dst []uint8) { s.m.RowSlice(v, gr.off, dst) },
		noLevelCover: gr.noLevelCover,
	}
}

func refEnvDyn(s *dynState) *refEnv {
	q := len(s.in.Sources)
	return &refEnv{
		q:            q,
		contains:     func(v graph.NodeID) uint64 { return s.contains[v] },
		weights:      s.in.Weights,
		lambda:       s.p.Lambda,
		noLevelCover: s.p.DisableLevelCover,
		row: func(v graph.NodeID, dst []uint8) {
			for i := 0; i < q; i++ {
				if h, ok := s.hitLevel(v, i); ok {
					dst[i] = h
				} else {
					dst[i] = Infinity
				}
			}
		},
	}
}

type refKwNode struct {
	v    graph.NodeID
	mask uint64
}

type refCandidate struct {
	answer  *Answer
	nodeSet map[graph.NodeID]struct{}
	covers  bool
	rank    int
}

func (env *refEnv) levelCover(ex *refExtraction) []graph.NodeID {
	all := allMask(env.q)
	covered := env.contains(ex.central)
	var kws []refKwNode
	for _, v := range ex.order {
		if v == ex.central {
			continue
		}
		if m := env.contains(v); m != 0 {
			kws = append(kws, refKwNode{v, m})
		}
	}
	slices.SortStableFunc(kws, func(a, b refKwNode) int {
		return bits.OnesCount64(b.mask) - bits.OnesCount64(a.mask)
	})
	keptKw := map[graph.NodeID]struct{}{}
	for lo := 0; lo < len(kws); {
		cnt := bits.OnesCount64(kws[lo].mask)
		hi := lo
		for hi < len(kws) && bits.OnesCount64(kws[hi].mask) == cnt {
			hi++
		}
		if covered == all {
			break
		}
		levelCoverage := covered
		for _, kn := range kws[lo:hi] {
			if kn.mask&^covered != 0 {
				keptKw[kn.v] = struct{}{}
				levelCoverage |= kn.mask
			}
		}
		covered = levelCoverage
		lo = hi
	}
	kept := map[graph.NodeID]struct{}{ex.central: {}}
	queue := []graph.NodeID{ex.central}
	for v := range keptKw {
		if _, ok := kept[v]; !ok {
			kept[v] = struct{}{}
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range ex.edges {
			if e.From != v {
				continue
			}
			if _, ok := kept[e.To]; !ok {
				kept[e.To] = struct{}{}
				queue = append(queue, e.To)
			}
		}
	}
	var out []graph.NodeID
	for _, v := range ex.order {
		if _, ok := kept[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

func (env *refEnv) assemble(ex *refExtraction, rank int) *refCandidate {
	kept := ex.order
	if !env.noLevelCover {
		kept = env.levelCover(ex)
	}
	q := env.q
	var (
		nodes  = make([]AnswerNode, 0, len(kept))
		rows   = make([]uint8, len(kept)*q)
		sumW   float64
		ids    = make(map[graph.NodeID]struct{}, len(kept))
		pruned = len(ex.order) - len(kept)
	)
	for ki, v := range kept {
		row := rows[ki*q : (ki+1)*q : (ki+1)*q]
		env.row(v, row)
		nodes = append(nodes, AnswerNode{
			ID:        v,
			Contains:  env.contains(v),
			OnPaths:   ex.onPaths[v],
			HitLevels: row,
		})
		ids[v] = struct{}{}
	}
	central := ex.central
	slices.SortFunc(nodes, func(a, b AnswerNode) int {
		switch {
		case a.ID == b.ID:
			return 0
		case a.ID == central:
			return -1
		case b.ID == central:
			return 1
		case a.ID < b.ID:
			return -1
		}
		return 1
	})
	for _, n := range nodes {
		sumW += env.weights[n.ID]
	}
	edges := make([]AnswerEdge, 0, len(ex.edges))
	for _, e := range ex.edges {
		if _, ok := ids[e.From]; !ok {
			continue
		}
		if _, ok := ids[e.To]; !ok {
			continue
		}
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, b AnswerEdge) int {
		switch {
		case a.From != b.From:
			if a.From < b.From {
				return -1
			}
			return 1
		case a.To != b.To:
			if a.To < b.To {
				return -1
			}
			return 1
		case a.Rel != b.Rel:
			if a.Rel < b.Rel {
				return -1
			}
			return 1
		case a.Forward == b.Forward:
			return 0
		case a.Forward:
			return -1
		}
		return 1
	})
	a := &Answer{
		Central:     ex.central,
		Depth:       ex.depth,
		Score:       Score(ex.depth, sumW, env.lambda),
		Nodes:       nodes,
		Edges:       edges,
		PrunedNodes: pruned,
	}
	return &refCandidate{answer: a, nodeSet: ids, covers: a.ContainsAllKeywords(q), rank: rank}
}

func refSelectTopK(cands []*refCandidate, k int) []*Answer {
	ordered := make([]*refCandidate, 0, len(cands))
	for _, c := range cands {
		if c != nil && c.covers {
			ordered = append(ordered, c)
		}
	}
	slices.SortFunc(ordered, func(a, b *refCandidate) int {
		switch {
		case a.answer.Score != b.answer.Score:
			if a.answer.Score < b.answer.Score {
				return -1
			}
			return 1
		case a.answer.Depth != b.answer.Depth:
			return a.answer.Depth - b.answer.Depth
		}
		return a.rank - b.rank
	})
	var out []*Answer
	var keptSets []map[graph.NodeID]struct{}
	for _, c := range ordered {
		if len(out) >= k {
			break
		}
		superset := false
		for _, ks := range keptSets {
			if len(ks) >= len(c.nodeSet) {
				continue
			}
			if refContainsAll(c.nodeSet, ks) {
				superset = true
				break
			}
		}
		if superset {
			continue
		}
		out = append(out, c.answer)
		keptSets = append(keptSets, c.nodeSet)
	}
	return out
}

func refContainsAll(super, sub map[graph.NodeID]struct{}) bool {
	for v := range sub {
		if _, ok := super[v]; !ok {
			return false
		}
	}
	return true
}

// refTopDownGroup is the reference top-down stage for one column group of
// a state whose bottom-up stage has run.
func refTopDownGroup(s *state, gr *group) []*Answer {
	env := refEnvGroup(s, gr)
	cands := make([]*refCandidate, len(gr.centrals))
	for i, vc := range gr.centrals {
		cands[i] = env.assemble(refExtract(s, gr, vc), i)
	}
	return refSelectTopK(cands, gr.topK)
}

// refTopDownDyn is the reference top-down stage of CPU-Par-d.
func refTopDownDyn(s *dynState) []*Answer {
	env := refEnvDyn(s)
	cands := make([]*refCandidate, len(s.centrals))
	for i, vc := range s.centrals {
		cands[i] = env.assemble(refRecover(s, vc), i)
	}
	return refSelectTopK(cands, s.p.TopK)
}
