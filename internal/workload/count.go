package workload

import (
	"loom/internal/graph"
	"loom/internal/partition"
)

// Closed-form ipt for labelled paths of 2 or 3 edges under
// EmbeddingCrossings. A distinct match of a path is its edge set, so the
// matches and their cut edges can be counted from label-filtered neighbour
// counts in one pass over the graph's dense index space, without
// enumerating a single embedding. cut(x,y) compares partition IDs exactly
// as the enumerator does: two Unassigned endpoints do not cross.
//
// 2-edge path L1–L2–L3, per centre v labelled L2, with A and B its L1- and
// L3-neighbours and cA, cB the cut edges from v into them:
//
//	L1 ≠ L3: matches |A|·|B|,   crossings cA·|B| + cB·|A|
//	L1 = L3: matches C(|A|,2),  crossings cA·(|A|−1)
//
// 3-edge path L1–L2–L3–L4, per middle edge (b,c) labelled (L2,L3), with
// A = L1-neighbours of b other than c, D = L4-neighbours of c other than
// b, and I = A ∩ D (the pairs with x = y, which are not paths):
//
//	matches   N = |A|·|D| − |I|
//	crossings cut(b,c)·N + cA·|D| + cD·|A| − Σ_{x∈I} (cut(x,b) + cut(c,x))
//
// When L2 = L3 each middle edge is taken in both orientations, except for
// a palindrome (L1 = L4 too), whose two orientations name the same
// matches and so count once.

// pathLabels returns q's vertex labels read from one end to the other when
// q is a path of 2 or 3 edges, and nil for any other shape. q must be
// connected (Workload.Validate).
func pathLabels(q *graph.Graph) []graph.Label {
	n := q.NumEdges()
	if (n != 2 && n != 3) || q.NumVertices() != n+1 {
		return nil
	}
	// A connected graph with |V| = |E|+1 is a tree; one with no vertex of
	// degree above 2 is a path.
	end, found := graph.VertexID(0), false
	for _, v := range q.Vertices() {
		switch d := q.Degree(v); {
		case d > 2:
			return nil
		case d == 1 && !found:
			end, found = v, true
		}
	}
	labels := []graph.Label{q.MustLabel(end)}
	prev, cur := end, end
	for len(labels) <= n {
		for _, w := range q.Neighbors(cur, nil) {
			if w != prev {
				prev, cur = cur, w
				break
			}
		}
		labels = append(labels, q.MustLabel(cur))
	}
	return labels
}

// pathCounter scores path queries over one (graph, assignment) pair.
type pathCounter struct {
	g    *graph.Graph
	part []partition.ID // partition per dense vertex index

	// mark[x] = b+1 while x is in b's A, so I = A ∩ D is found without
	// a map or a clear per middle edge.
	mark []uint32

	nbrB, nbrC []uint32 // neighbour scratch for b (or the centre) and c
}

// newPathCounter builds the partition column with one a.Of per vertex.
func newPathCounter(g *graph.Graph, a *partition.Assignment) *pathCounter {
	ids := g.IDs()
	part := make([]partition.ID, len(ids))
	for i, id := range ids {
		part[i] = a.Of(graph.VertexID(id))
	}
	return &pathCounter{g: g, part: part}
}

// count returns the distinct matches of the path with the given vertex
// labels and the total of their cut edges.
func (pc *pathCounter) count(labels []graph.Label) (matches, crossings int) {
	codes := make([]uint16, len(labels))
	for i, l := range labels {
		code, ok := pc.g.LabelCodeOf(l)
		if !ok {
			return 0, 0
		}
		codes[i] = code
	}
	if len(codes) == 3 {
		return pc.count2(codes[0], codes[1], codes[2])
	}
	return pc.count3(codes[0], codes[1], codes[2], codes[3])
}

func (pc *pathCounter) cut(x, y uint32) int {
	if pc.part[x] != pc.part[y] {
		return 1
	}
	return 0
}

func (pc *pathCounter) count2(l1, l2, l3 uint16) (matches, crossings int) {
	g := pc.g
	for v := uint32(0); v < uint32(len(pc.part)); v++ {
		if g.LabelCode(v) != l2 {
			continue
		}
		pc.nbrB = g.AppendNeighborIdx(v, pc.nbrB[:0])
		var nA, cA, nB, cB int
		for _, x := range pc.nbrB {
			switch g.LabelCode(x) {
			case l1:
				nA++
				cA += pc.cut(x, v)
			case l3:
				nB++
				cB += pc.cut(x, v)
			}
		}
		if l1 == l3 {
			matches += nA * (nA - 1) / 2
			crossings += cA * (nA - 1)
		} else {
			matches += nA * nB
			crossings += cA*nB + cB*nA
		}
	}
	return matches, crossings
}

func (pc *pathCounter) count3(l1, l2, l3, l4 uint16) (matches, crossings int) {
	g := pc.g
	if pc.mark == nil {
		pc.mark = make([]uint32, len(pc.part))
	} else {
		clear(pc.mark) // stamps of the previous query
	}
	palindrome := l1 == l4 && l2 == l3
	for b := uint32(0); b < uint32(len(pc.part)); b++ {
		if g.LabelCode(b) != l2 {
			continue
		}
		pc.nbrB = g.AppendNeighborIdx(b, pc.nbrB[:0])
		stamp := b + 1
		var nA, cA int
		for _, x := range pc.nbrB {
			if g.LabelCode(x) == l1 {
				pc.mark[x] = stamp
				nA++
				cA += pc.cut(x, b)
			}
		}
		for _, c := range pc.nbrB {
			lc := g.LabelCode(c)
			if lc != l3 || (palindrome && c < b) {
				continue
			}
			cutBC := pc.cut(b, c)
			// A excludes c itself.
			nAc, cAc := nA, cA
			if lc == l1 {
				nAc--
				cAc -= cutBC
			}
			pc.nbrC = g.AppendNeighborIdx(c, pc.nbrC[:0])
			var nD, cD, nI, cI int
			for _, y := range pc.nbrC {
				if y == b || g.LabelCode(y) != l4 {
					continue
				}
				cy := pc.cut(c, y)
				nD++
				cD += cy
				if pc.mark[y] == stamp {
					nI++
					cI += pc.cut(y, b) + cy
				}
			}
			n := nAc*nD - nI
			matches += n
			crossings += cutBC*n + cAc*nD + cD*nAc - cI
		}
	}
	return matches, crossings
}
