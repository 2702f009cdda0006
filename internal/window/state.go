package window

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"loom/internal/intern"
	"loom/internal/tpstry"
	"loom/internal/wal"
)

// AppendState writes the matcher's checkpoint section: the counters, the
// live FIFO oldest-first (each edge with the insertion seq its FIFO entry
// and edge slot share), and every live match in ascending creation seq as
// its motif node's stable trie ID, its seq and its sorted edge set.
// Vertex labels are not part of it: they live in the vertex space, which
// is restored first. Match vertices, degrees and fingerprints are
// re-derived on restore.
//
// The matches must be written rather than re-derived by re-inserting the
// window edges: tryJoin can create matches that do not contain the edge
// whose insert triggered them (they then survive that edge's removal),
// and the per-vertex match cap makes the surviving set dependent on the
// full insertion history, not just the current edge set.
func (w *Matcher) AppendState(e *wal.Enc) {
	e.U64(w.seq)
	e.U64(w.mseq)
	at, n := len(e.B), uint32(0)
	e.U32(0) // live edge count, patched below
	for _, we := range w.fifo[w.head:] {
		if w.fifoLive(we) {
			e.U32(we.ie.U)
			e.U32(we.ie.V)
			e.U64(we.seq)
			n++
		}
	}
	binary.LittleEndian.PutUint32(e.B[at:], n)
	// Every live match hangs off the byVertex list of each of its
	// vertices; taking it from its smallest vertex's list takes it once.
	var ms []*Match
	for v, list := range w.byVertex {
		for _, m := range list {
			if !m.dead && m.verts[0] == uint32(v) {
				ms = append(ms, m)
			}
		}
	}
	slices.SortFunc(ms, func(a, b *Match) int { return cmp.Compare(a.seq, b.seq) })
	e.U32(uint32(len(ms)))
	for _, m := range ms {
		e.I64(int64(m.Node.ID))
		e.U64(m.seq)
		e.U32(uint32(len(m.iedges)))
		for _, ie := range m.iedges {
			e.U32(ie.U)
			e.U32(ie.V)
		}
	}
}

// RestoreState reads an AppendState section into a freshly constructed
// matcher whose trie already carries the workload the section was written
// under (so every node ID resolves) and whose vertex space is already
// restored. Every window edge must join two labelled vertices. Matches
// are relinked in ascending seq order, which reproduces the seq-ascending
// byVertex and edge-slot list order the join path depends on.
func (w *Matcher) RestoreState(d *wal.Dec) error {
	if w.seq != 0 || w.mseq != 0 || w.edges.Len() != 0 || len(w.fifo) != 0 {
		return fmt.Errorf("window: RestoreState on a non-fresh matcher")
	}
	seq, mseq := d.U64(), d.U64()
	var lastSeq uint64
	for k := d.Len(16); k > 0; k-- {
		e, es := IEdge{U: d.U32(), V: d.U32()}, d.U64()
		if e != e.norm() || e.U == e.V {
			return fmt.Errorf("window: state edge %v is not a normalised window edge", e)
		}
		cu, uok := w.sp.Code(e.U)
		cv, vok := w.sp.Code(e.V)
		if !uok || !vok {
			return fmt.Errorf("window: state edge %v references an unlabelled vertex", e)
		}
		if es <= lastSeq || es > seq {
			return fmt.Errorf("window: state edge seqs not ascending (%d after %d, max %d)", es, lastSeq, seq)
		}
		lastSeq = es
		slot, existed := w.edges.ensure(packIEdge(e))
		if existed {
			return fmt.Errorf("window: state contains duplicate edge %v", e)
		}
		slot.Val.seq = es
		w.fifo = append(w.fifo, winEdge{ie: e, seq: es})
		w.ensureVertex(e.U, cu)
		w.ensureVertex(e.V, cv)
		w.vertexRC[e.U]++
		w.vertexRC[e.V]++
	}

	var nodeByID map[int]*tpstry.Node
	lastSeq = 0
	for k := d.Len(20); k > 0; k-- {
		id, ms := int(d.I64()), d.U64()
		if nodeByID == nil {
			nodeByID = make(map[int]*tpstry.Node, w.trie.Size())
			for _, n := range w.trie.Nodes() {
				nodeByID[n.ID] = n
			}
		}
		node := nodeByID[id]
		if node == nil {
			return fmt.Errorf("window: state match references unknown trie node %d", id)
		}
		n := d.Len(8)
		if n == 0 {
			return fmt.Errorf("window: state match on node %d has no edges", id)
		}
		if ms <= lastSeq || ms > mseq {
			return fmt.Errorf("window: state match seqs not ascending (%d after %d, max %d)", ms, lastSeq, mseq)
		}
		lastSeq = ms
		m := w.acquireMatch()
		for ; n > 0; n-- {
			m.iedges = append(m.iedges, IEdge{U: d.U32(), V: d.U32()})
		}
		if !slices.IsSortedFunc(m.iedges, CompareIEdges) {
			w.releaseMatch(m)
			return fmt.Errorf("window: state match edge set not sorted")
		}
		for _, e := range m.iedges {
			if w.edges.get(packIEdge(e)) == nil {
				w.releaseMatch(m)
				return fmt.Errorf("window: state match references edge %v not in the window", e)
			}
			m.fp ^= intern.Mix64(packIEdge(e))
		}
		m.Node = node
		m.seq = ms
		m.deriveVerts()
		w.link(m)
	}

	w.seq = seq
	w.mseq = mseq
	return d.Err()
}
