package window

import (
	"fmt"
	"slices"
	"sort"

	"loom/internal/intern"
	"loom/internal/tpstry"
)

// EdgeState is one live window edge: its interned endpoints and the
// insertion sequence number its FIFO entry and edge slot share.
type EdgeState struct {
	E   IEdge
	Seq uint64
}

// MatchState is one live match, by value: its motif node (as the node's
// stable creation-order ID in the trie), its creation sequence number and
// its sorted interned edge set. Vertices, degrees and the fingerprint are
// re-derived on restore.
type MatchState struct {
	NodeID int
	Seq    uint64
	IEdges []IEdge
}

// MatcherState is the full checkpointable matcher: counters, the live FIFO
// and every live match. Vertex labels are not part of it: they live in the
// vertex space, which is restored first.
//
// The matches must be serialised rather than re-derived by re-inserting
// the window edges: tryJoin can create matches that do not contain the
// edge whose insert triggered them (they then survive that edge's
// removal), and the per-vertex match cap makes the surviving set dependent
// on the full insertion history, not just the current edge set.
type MatcherState struct {
	Seq     uint64
	MSeq    uint64
	Edges   []EdgeState  // live edges, oldest-first
	Matches []MatchState // live matches, ascending Seq
}

// CaptureState deep-copies the matcher's checkpointable state.
func (w *Matcher) CaptureState() MatcherState {
	s := MatcherState{Seq: w.seq, MSeq: w.mseq}
	for i := w.head; i < len(w.fifo); i++ {
		we := w.fifo[i]
		if w.fifoLive(we) {
			s.Edges = append(s.Edges, EdgeState{E: we.ie, Seq: we.seq})
		}
	}
	// Every live match hangs off the byVertex list of each of its
	// vertices; walk those and dedup by pointer.
	seen := make(map[*Match]struct{}, w.live)
	for _, list := range w.byVertex {
		for _, m := range list {
			if m.dead {
				continue
			}
			if _, ok := seen[m]; ok {
				continue
			}
			seen[m] = struct{}{}
			s.Matches = append(s.Matches, MatchState{
				NodeID: m.Node.ID,
				Seq:    m.seq,
				IEdges: append([]IEdge(nil), m.iedges...),
			})
		}
	}
	sort.Slice(s.Matches, func(i, j int) bool { return s.Matches[i].Seq < s.Matches[j].Seq })
	return s
}

// RestoreState loads a captured state into a freshly constructed matcher
// whose trie already carries the workload the state was captured under and
// whose vertex space is already restored; nodeByID maps the trie's stable
// node IDs back to nodes (see tpstry.Trie.Nodes). Every window edge must
// join two labelled vertices. Matches are relinked in ascending Seq order,
// which reproduces the seq-ascending byVertex and edge-slot list order the
// join path depends on.
func (w *Matcher) RestoreState(s MatcherState, nodeByID map[int]*tpstry.Node) error {
	if w.seq != 0 || w.mseq != 0 || w.edges.Len() != 0 || len(w.fifo) != 0 {
		return fmt.Errorf("window: RestoreState on a non-fresh matcher")
	}
	var lastSeq uint64
	for _, es := range s.Edges {
		e := es.E
		if e != e.norm() || e.U == e.V {
			return fmt.Errorf("window: state edge %v is not a normalised window edge", e)
		}
		cu, uok := w.sp.Code(e.U)
		cv, vok := w.sp.Code(e.V)
		if !uok || !vok {
			return fmt.Errorf("window: state edge %v references an unlabelled vertex", e)
		}
		if es.Seq <= lastSeq || es.Seq > s.Seq {
			return fmt.Errorf("window: state edge seqs not ascending (%d after %d, max %d)", es.Seq, lastSeq, s.Seq)
		}
		lastSeq = es.Seq
		slot, existed := w.edges.ensure(packIEdge(e))
		if existed {
			return fmt.Errorf("window: state contains duplicate edge %v", e)
		}
		slot.Val.seq = es.Seq
		w.fifo = append(w.fifo, winEdge{ie: e, seq: es.Seq})
		w.ensureVertex(e.U, cu)
		w.ensureVertex(e.V, cv)
		w.vertexRC[e.U]++
		w.vertexRC[e.V]++
	}

	lastSeq = 0
	for _, ms := range s.Matches {
		node := nodeByID[ms.NodeID]
		if node == nil {
			return fmt.Errorf("window: state match references unknown trie node %d", ms.NodeID)
		}
		if len(ms.IEdges) == 0 {
			return fmt.Errorf("window: state match on node %d has no edges", ms.NodeID)
		}
		if ms.Seq <= lastSeq || ms.Seq > s.MSeq {
			return fmt.Errorf("window: state match seqs not ascending (%d after %d, max %d)", ms.Seq, lastSeq, s.MSeq)
		}
		lastSeq = ms.Seq
		m := w.acquireMatch()
		m.Node = node
		m.iedges = append(m.iedges, ms.IEdges...)
		if !slices.IsSortedFunc(m.iedges, CompareIEdges) {
			w.releaseMatch(m)
			return fmt.Errorf("window: state match edge set not sorted")
		}
		var fp uint64
		for _, e := range m.iedges {
			if w.edges.get(packIEdge(e)) == nil {
				w.releaseMatch(m)
				return fmt.Errorf("window: state match references edge %v not in the window", e)
			}
			fp ^= intern.Mix64(packIEdge(e))
			m.verts = append(m.verts, e.U, e.V)
		}
		m.fp = fp
		slices.Sort(m.verts)
		m.verts = slices.Compact(m.verts)
		for range m.verts {
			m.degs = append(m.degs, 0)
		}
		for _, e := range m.iedges {
			i, _ := slices.BinarySearch(m.verts, e.U)
			m.degs[i]++
			j, _ := slices.BinarySearch(m.verts, e.V)
			m.degs[j]++
		}
		m.seq = ms.Seq
		w.live++
		for _, v := range m.verts {
			w.byVertex[v] = addMatchRef(w.byVertex[v], m)
		}
		for _, e := range m.iedges {
			slot := w.edges.get(packIEdge(e))
			slot.Val.matches = addMatchRef(slot.Val.matches, m)
		}
	}

	w.seq = s.Seq
	w.mseq = s.MSeq
	return nil
}
