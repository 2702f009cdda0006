// Package window implements Loom's sliding stream window Ptemp and the
// motif-matching procedure of §3 (Alg. 2).
//
// The window buffers the most recent motif-matching edges of the graph
// stream. Alongside it, a matchList maps each window vertex v to the set of
// motif-matching sub-graphs in Ptemp that contain v, each paired with the
// TPSTry++ node of the motif it matches: entries take the form
// v → {⟨Ei, mi⟩, ⟨Ej, mj⟩, …} where Ei is a set of window edges forming a
// sub-graph with the same signature as motif mi.
//
// When a new edge e = (v1, v2) arrives:
//
//  1. If e does not match a single-edge motif at the root of the TPSTry++,
//     it "will never form part of any sub-graph that matches a motif" and
//     the caller (Loom) assigns it immediately, bypassing the window.
//  2. Otherwise e is added with its single-edge match, then every existing
//     match connected to e is tentatively grown by e: the 3-factor delta of
//     the addition is computed against the match's sub-graph and looked up
//     among the children of the match's trie node (Alg. 2 lines 3–8).
//  3. Finally, pairs of existing matches around v1 and v2 are joined by
//     recursively growing the larger by the edges of the smaller, one trie
//     link at a time (Alg. 2 lines 11–18).
//
// Matches are recorded for every vertex of the matching sub-graph, per the
// worked example of §3 (⟨{e2,e3}, m3⟩ is added "to the matchList entries
// for vertices 3, 4 and 5").
//
// The matcher is slice-backed: vertices and labels are interned
// (internal/intern) and all per-vertex state — label r-values, window
// reference counts, matchList entries — is indexed by the dense vertex
// index, so the per-edge matching path performs no string hashing and
// signature deltas are computed from cached r-values.
package window

import (
	"cmp"
	"fmt"
	"slices"

	"loom/internal/graph"
	"loom/internal/intern"
	"loom/internal/signature"
	"loom/internal/tpstry"
)

// DefaultMaxMatchesPerVertex guards against pathological windows (e.g. a
// dense same-label hub) where the number of overlapping motif matches per
// vertex explodes. Beyond the cap, new matches containing the vertex are
// not recorded; partitioning degrades gracefully toward LDG behaviour.
const DefaultMaxMatchesPerVertex = 128

// IEdge is a window edge as a pair of dense (interned) vertex indices,
// normalised U <= V.
type IEdge struct {
	U, V uint32
}

func (e IEdge) norm() IEdge {
	if e.V < e.U {
		return IEdge{e.V, e.U}
	}
	return e
}

// Match is a motif-matching sub-graph in the window: an edge set paired
// with the TPSTry++ node whose signature it shares (an entry ⟨Ei, mi⟩ of
// the matchList).
//
// The hot path runs entirely on the interned edge set: iedges and verts
// are kept sorted (membership is a binary search), degs caches each
// vertex's degree within the match (so the Alg. 2 delta of a candidate
// edge needs no edge-set scan), and fp is an order-independent 64-bit
// fingerprint of the edge set used as a fast negative filter before full
// comparisons. The external-ID edge set is derived lazily (Edges) for
// cold-path callers; per-match copies in the grow/join paths carry only
// the interned form.
type Match struct {
	// Node is the motif's TPSTry++ node; Node.Sig equals the sub-graph's
	// signature and the trie's SupportOf(Node) gives the motif support
	// used to rank matches during assignment (§4).
	Node *tpstry.Node

	iedges []IEdge      // interned edge set, sorted by (U,V)
	verts  []uint32     // distinct interned vertices, sorted
	degs   []int32      // in-match degree per verts[i]
	fp     uint64       // XOR of mixed packed edges (set-equality filter)
	seq    uint64       // creation order; byVertex lists are seq-ascending
	ext    []graph.Edge // lazily derived external edge set (see Edges)
	vt     *intern.VertexTable
	dead   bool

	// Inline backing for the dominant small case (most matches are the
	// one- and two-edge sub-graphs every windowed edge spawns): a fresh
	// match's iedges/verts/degs slices point here, so creating it costs
	// one allocation (the Match itself) instead of four. Larger matches
	// spill to the heap transparently via append, and the pool then
	// recycles whichever backing a match ended up with. Scalar arrays:
	// no pointers, no extra GC scan work.
	ieInline [2]IEdge
	vInline  [4]uint32
	dInline  [4]int32
}

// Edges returns the match's edge set as external vertex IDs, in canonical
// (normalised, sorted) order. The slice is derived lazily from the
// interned edge set on first call, cached for the match's lifetime, and
// owned by the match — callers must not modify it.
func (m *Match) Edges() []graph.Edge {
	if len(m.ext) == 0 {
		for _, ie := range m.iedges {
			e := graph.Edge{U: graph.VertexID(m.vt.ID(ie.U)), V: graph.VertexID(m.vt.ID(ie.V))}
			m.ext = append(m.ext, e.Norm())
		}
		slices.SortFunc(m.ext, compareEdges)
	}
	return m.ext
}

// Vertices returns the distinct external vertex IDs of the match, sorted.
// Cold-path convenience; the assignment hot path uses VertexIndices.
func (m *Match) Vertices() []graph.VertexID {
	out := make([]graph.VertexID, len(m.verts))
	for i, v := range m.verts {
		out[i] = graph.VertexID(m.vt.ID(v))
	}
	slices.Sort(out)
	return out
}

// VertexIndices returns the match's distinct dense vertex indices, sorted.
// The slice is owned by the match and must not be modified.
func (m *Match) VertexIndices() []uint32 { return m.verts }

// IEdges returns the match's interned edge set, sorted by (U,V). The slice
// is owned by the match and must not be modified.
func (m *Match) IEdges() []IEdge { return m.iedges }

// NumEdges returns the size of the match's edge set.
func (m *Match) NumEdges() int { return len(m.iedges) }

// ContainsEdge reports whether the match includes e (normalised).
func (m *Match) ContainsEdge(e graph.Edge) bool {
	if m.vt == nil {
		return false
	}
	ui, ok := m.vt.Lookup(int64(e.U))
	if !ok {
		return false
	}
	vi, ok := m.vt.Lookup(int64(e.V))
	if !ok {
		return false
	}
	return m.containsIEdge(IEdge{ui, vi}.norm())
}

func (m *Match) containsIEdge(e IEdge) bool {
	_, ok := slices.BinarySearchFunc(m.iedges, e, CompareIEdges)
	return ok
}

func (m *Match) containsVertex(i uint32) bool {
	_, ok := slices.BinarySearch(m.verts, i)
	return ok
}

// degOf returns vertex i's degree within the match (0 when i is not a
// match vertex) — the O(log |verts|) lookup behind every Alg. 2 delta.
func (m *Match) degOf(i uint32) int32 {
	if p, ok := slices.BinarySearch(m.verts, i); ok {
		return m.degs[p]
	}
	return 0
}

func (m *Match) String() string {
	return fmt.Sprintf("⟨%v,%v⟩", m.Edges(), m.Node)
}

// Matcher is the sliding window Ptemp plus its matchList. It is not safe
// for concurrent use (Loom is single-threaded, §6).
type Matcher struct {
	trie      *tpstry.Trie
	scheme    *signature.Scheme
	threshold float64
	capacity  int
	maxEdges  int // largest motif size; matches never grow beyond it
	maxPerV   int

	// sp is the vertex space (shared with the tracker, core and recorded
	// graph under Loom): it holds each vertex's label code. verts and ltab
	// are its tables, cached for the hot path.
	sp    *intern.Space
	verts *intern.VertexTable
	ltab  *intern.LabelTable
	lval  []uint32 // r(l) per label code (0 = not yet resolved; values are in [1, p))

	// Per dense vertex index (sticky; a vertex keeps its slot after
	// leaving the window — labels are immutable and slots are reused on
	// return).
	vrval    []uint32 // r-value of the vertex's label
	vertexRC []int32  // window edges touching the vertex
	byVertex [][]*Match

	// Epoch-stamped per-vertex degree scratch for the recursive join grow:
	// seeded from the base match's cached degree vector, incremented and
	// decremented as candidate edges are tried, so each Alg. 2 delta during
	// a join is O(1) instead of an edge-set scan. gstamp[i] == gepoch marks
	// gdeg[i] as valid for the current grow.
	gdeg   []int32
	gstamp []uint32
	gepoch uint32

	fifo  []winEdge
	head  int
	edges edgeTable // buffered edges + per-edge matchList (packed keys)
	seq   uint64    // insertion counter; see winEdge.seq
	live  int       // live matches
	mseq  uint64    // match creation counter; see Match.seq

	// Single-edge motif gate memo: a dense per-label-pair table, valid
	// while the trie's workload version is unchanged. The gate runs once
	// per stream edge; the label alphabet is tiny, so after warm-up it is
	// one slice index instead of a map probe (let alone a signature delta
	// + trie walk). gate[cu*gateDim+cv] holds the verdict for the ordered
	// code pair (cu, cv); gateDim tracks the label codes seen so far and
	// the table re-strides as the alphabet grows, up to maxGateDim — the
	// dense table is quadratic in the alphabet, so pairs involving codes
	// past the cap (pathological alphabets; intern allows 2^16 codes)
	// memoise in the gateSlow map instead, which is linear in pairs seen.
	gate     []gateCell
	gateDim  int
	gateSlow map[uint32]*tpstry.Node // (cu<<16|cv) → node; nil = non-motif
	gateVer  int

	// Freelists and scratch for the per-edge and eviction hot paths:
	// everything here is recycled so steady-state operation performs no
	// allocation.
	pool     []*Match  // dead matches awaiting reuse (edge/vertex slices kept)
	killed   []*Match  // RemoveIEdges scratch
	joinRest []IEdge   // tryJoin: edges of the smaller match not in the larger
	growRest [][]IEdge // grow: per-depth remaining-edge scratch
}

// winEdge is one FIFO entry: 16 bytes of interned state. The external
// StreamEdge view is reconstructed on demand (streamEdgeOf) from the
// vertex table and the per-vertex label codes — buffering the original
// StreamEdge would retain two label strings per window edge for the
// window's lifetime, the single largest slab of window memory.
type winEdge struct {
	ie  IEdge
	seq uint64 // matches the edge slot's seq while THIS entry is the live one
}

// NewMatcher builds a window of the given capacity (the paper's t, default
// 10k edges in §5.1) over the motifs of trie at the given support
// threshold, with its own vertex space.
func NewMatcher(trie *tpstry.Trie, threshold float64, capacity int) *Matcher {
	return NewMatcherWith(trie, threshold, capacity, intern.NewSpace(0))
}

// NewMatcherWith is NewMatcher over a shared vertex space, so the window
// and the partition tracker agree on dense vertex indices and labels (Loom
// shares one space per partitioner).
func NewMatcherWith(trie *tpstry.Trie, threshold float64, capacity int, sp *intern.Space) *Matcher {
	if capacity < 0 {
		panic(fmt.Sprintf("window: negative capacity %d", capacity))
	}
	maxEdges := trie.MaxMotifEdges(threshold)
	return &Matcher{
		trie:      trie,
		scheme:    trie.Scheme(),
		threshold: threshold,
		capacity:  capacity,
		maxEdges:  maxEdges,
		maxPerV:   DefaultMaxMatchesPerVertex,
		sp:        sp,
		verts:     sp.Verts(),
		ltab:      sp.Labels(),
		growRest:  make([][]IEdge, maxEdges+1),
		pool:      make([]*Match, 0, maxPoolMatches),
	}
}

// SetMaxMatchesPerVertex overrides the per-vertex match cap.
func (w *Matcher) SetMaxMatchesPerVertex(n int) { w.maxPerV = n }

// Reserve pre-sizes the per-vertex slices for n vertices and the edge
// index and FIFO for the window capacity, eliminating incremental growth
// from the per-edge path when the stream's vertex count is known. Large
// reservations are clamped; the structures still grow on demand.
func (w *Matcher) Reserve(n int) {
	const maxReserve = 1 << 21
	if n > maxReserve {
		n = maxReserve
	}
	if n > cap(w.vrval) {
		vrval := make([]uint32, len(w.vrval), n)
		copy(vrval, w.vrval)
		w.vrval = vrval
		rc := make([]int32, len(w.vertexRC), n)
		copy(rc, w.vertexRC)
		w.vertexRC = rc
		byV := make([][]*Match, len(w.byVertex), n)
		copy(byV, w.byVertex)
		w.byVertex = byV
		gdeg := make([]int32, len(w.gdeg), n)
		copy(gdeg, w.gdeg)
		w.gdeg = gdeg
		gstamp := make([]uint32, len(w.gstamp), n)
		copy(gstamp, w.gstamp)
		w.gstamp = gstamp
	}
	// The edge index and FIFO are reserved for a fraction of the window
	// capacity rather than all of it: how much of the capacity a stream
	// actually uses depends on its motif fraction (the evaluation
	// datasets buffer well under half), both structures keep amortised
	// O(1) growth past the reservation, and a full eager reservation is
	// the single largest constructor allocation (a 10k window's edge
	// slots alone are ~650 KB, repaid only when the window really fills).
	const maxEagerEdges = 2048
	edges := w.capacity + 1
	if edges > maxEagerEdges {
		edges = maxEagerEdges
	}
	if w.edges.Len() == 0 && edges > 32 {
		w.edges.Reserve(edges)
	}
	if cap(w.fifo) < edges {
		fifo := make([]winEdge, len(w.fifo), edges)
		copy(fifo, w.fifo)
		w.fifo = fifo
	}
}

// Len returns the number of edges currently in the window.
func (w *Matcher) Len() int { return w.edges.Len() }

// Capacity returns the window size t.
func (w *Matcher) Capacity() int { return w.capacity }

// OverCapacity reports whether the window holds more than t edges, i.e. an
// eviction is due ("each new edge added to a full window causes the oldest
// edge to be dropped", §4).
func (w *Matcher) OverCapacity() bool { return w.edges.Len() > w.capacity }

// Empty reports whether the window holds no edges.
func (w *Matcher) Empty() bool { return w.edges.Len() == 0 }

// NumMatches returns the number of live matches (diagnostics).
func (w *Matcher) NumMatches() int { return w.live }

// Verts returns the matcher's vertex table.
func (w *Matcher) Verts() *intern.VertexTable { return w.verts }

// Labels returns the matcher's label table.
func (w *Matcher) Labels() *intern.LabelTable { return w.ltab }

// labelVal returns (caching) the scheme r-value of label code c.
func (w *Matcher) labelVal(c uint16) uint32 {
	for len(w.lval) <= int(c) {
		w.lval = append(w.lval, 0)
	}
	if w.lval[c] == 0 {
		// r-values live in [1, p), so 0 safely marks "unresolved".
		w.lval[c] = w.scheme.LabelValue(graph.Label(w.ltab.Name(c)))
	}
	return w.lval[c]
}

// ensureVertex grows the per-vertex slices to cover dense index i and
// records i's label r-value.
func (w *Matcher) ensureVertex(i uint32, code uint16) {
	for len(w.vrval) <= int(i) {
		w.vrval = append(w.vrval, 0)
		w.vertexRC = append(w.vertexRC, 0)
		w.byVertex = append(w.byVertex, nil)
		w.gdeg = append(w.gdeg, 0)
		w.gstamp = append(w.gstamp, 0)
	}
	w.vrval[i] = w.labelVal(code)
}

// Label returns the label of a window vertex.
func (w *Matcher) Label(v graph.VertexID) (graph.Label, bool) {
	i, ok := w.verts.Lookup(int64(v))
	if !ok || !w.HasVertexIdx(i) {
		return "", false
	}
	c, _ := w.sp.Code(i)
	return graph.Label(w.ltab.Name(c)), true
}

// HasVertexIdx reports whether the vertex at dense index i currently has
// edges buffered in the window (see HasVertex).
func (w *Matcher) HasVertexIdx(i uint32) bool {
	return int(i) < len(w.vertexRC) && w.vertexRC[i] > 0
}

// HasVertex reports whether v currently has edges buffered in the window,
// i.e. v is part of Ptemp and will be placed by a future eviction. Loom's
// immediate-assignment path consults this to avoid pinning a vertex whose
// motif cluster is still forming (§4: the assignment of motif matches, not
// incidental non-motif edges, should decide such vertices' placement).
func (w *Matcher) HasVertex(v graph.VertexID) bool {
	i, ok := w.verts.Lookup(int64(v))
	return ok && w.HasVertexIdx(i)
}

// gateCell is one memoised single-edge verdict.
type gateCell struct {
	node  *tpstry.Node // the single-edge motif node (gateMotif only)
	state uint8        // gateUnknown / gateMotif / gateNonMotif
}

const (
	gateUnknown  = uint8(iota) // pair not yet resolved
	gateMotif                  // single-edge motif; node is set
	gateNonMotif               // fails the gate
)

// maxGateDim caps the dense gate's dimension: the table is quadratic in
// the alphabet (256² cells × 16 B = 1 MiB at the cap), and label codes
// can in principle run to intern.MaxLabels = 2^16, where a dense table
// would be tens of GiB. Codes past the cap take the map path.
const maxGateDim = 256

// SingleEdgeMotifCodes returns the TPSTry++ node for the single-edge motif
// over interned label codes (cu, cv), if one exists at the current
// threshold. This is the gate of §3: edges failing it never enter the
// window. Decisions are memoised per label pair until the trie's workload
// changes (supports — and so motif-hood — move with every AddQuery).
func (w *Matcher) SingleEdgeMotifCodes(cu, cv uint16) (*tpstry.Node, bool) {
	w.GateSync()
	if int(cu) >= maxGateDim || int(cv) >= maxGateDim {
		key := uint32(cu)<<16 | uint32(cv)
		if n, ok := w.gateSlow[key]; ok {
			return n, n != nil
		}
		n := w.resolveGate(cu, cv)
		if w.gateSlow == nil {
			w.gateSlow = make(map[uint32]*tpstry.Node, 64)
		}
		w.gateSlow[key] = n
		return n, n != nil
	}
	if int(cu) >= w.gateDim || int(cv) >= w.gateDim {
		w.growGate(int(max(cu, cv)) + 1)
	}
	cell := &w.gate[int(cu)*w.gateDim+int(cv)]
	switch cell.state {
	case gateMotif:
		return cell.node, true
	case gateNonMotif:
		return nil, false
	}
	n := w.resolveGate(cu, cv)
	if n == nil {
		cell.state = gateNonMotif
		return nil, false
	}
	cell.node = n
	cell.state = gateMotif
	return n, true
}

// resolveGate answers the single-edge motif question from the trie (the
// memo miss path): the motif node, or nil.
func (w *Matcher) resolveGate(cu, cv uint16) *tpstry.Node {
	d := w.scheme.EdgeDeltaVals(w.labelVal(cu), 0, w.labelVal(cv), 0)
	n, ok := w.trie.Root().ChildByDelta(d)
	if !ok || !w.trie.IsMotif(n, w.threshold) {
		return nil
	}
	return n
}

// growGate re-strides the gate table to cover label codes below dim
// (≤ maxGateDim), relocating memoised verdicts. Runs once per new label
// (serial contexts only — the same ones that intern labels).
func (w *Matcher) growGate(dim int) {
	newDim := w.gateDim * 2
	if newDim < dim {
		newDim = dim
	}
	if newDim < 8 {
		newDim = 8
	}
	if newDim > maxGateDim {
		newDim = maxGateDim
	}
	grown := make([]gateCell, newDim*newDim)
	for i := 0; i < w.gateDim; i++ {
		copy(grown[i*newDim:i*newDim+w.gateDim], w.gate[i*w.gateDim:(i+1)*w.gateDim])
	}
	w.gate = grown
	w.gateDim = newDim
}

// GateSync revalidates the single-edge gate memo against the trie's current
// workload version, clearing stale verdicts (supports — and so motif-hood —
// move with every AddQuery). SingleEdgeMotifCodes calls it implicitly; the
// batch-prepare pipeline calls it explicitly, once and serially, before
// fanning GateProbe reads across worker goroutines — after GateSync returns
// and until the next mutating call, the memo is stable and GateProbe is
// safe for any number of concurrent readers.
func (w *Matcher) GateSync() {
	if v := w.trie.Version(); w.gate == nil || w.gateVer != v {
		if w.gate == nil {
			w.growGate(8)
		} else {
			clear(w.gate)
		}
		if w.gateSlow != nil {
			clear(w.gateSlow)
		}
		w.gateVer = v
		// A workload change also moves the largest-motif bound; matches
		// already larger than a shrunken bound simply stop growing.
		w.maxEdges = w.trie.MaxMotifEdges(w.threshold)
		w.ensureGrowScratch()
	}
}

// GateProbe is the read-only form of SingleEdgeMotifCodes: it consults the
// memo without ever writing it, reporting the motif node (nil for a
// non-motif pair), the verdict, and whether the pair has been memoised at
// all. Unknown pairs are left for a serial SingleEdgeMotifCodes pass to
// resolve. Callers must GateSync first; concurrent GateProbe calls are then
// safe as long as no gate-mutating call runs alongside them (the parallel
// pre-pass of AddBatch relies on exactly this).
func (w *Matcher) GateProbe(cu, cv uint16) (node *tpstry.Node, motif, known bool) {
	if int(cu) >= maxGateDim || int(cv) >= maxGateDim {
		n, ok := w.gateSlow[uint32(cu)<<16|uint32(cv)]
		return n, n != nil, ok
	}
	if int(cu) >= w.gateDim || int(cv) >= w.gateDim {
		return nil, false, false
	}
	cell := &w.gate[int(cu)*w.gateDim+int(cv)]
	return cell.node, cell.state == gateMotif, cell.state != gateUnknown
}

// ensureGrowScratch re-sizes the join/grow scratch for the current
// maxEdges (which can grow when queries are added to the trie).
func (w *Matcher) ensureGrowScratch() {
	for len(w.growRest) < w.maxEdges+1 {
		w.growRest = append(w.growRest, nil)
	}
}

// SingleEdgeMotif is SingleEdgeMotifCodes for a raw stream edge, interning
// its labels.
func (w *Matcher) SingleEdgeMotif(e graph.StreamEdge) (*tpstry.Node, bool) {
	return w.SingleEdgeMotifCodes(w.ltab.Intern(string(e.LU)), w.ltab.Intern(string(e.LV)))
}

// Insert adds a motif-matching edge to the window and updates the
// matchList per Alg. 2. The caller must have checked SingleEdgeMotif; a
// duplicate window edge, self-loop, or an endpoint arriving with a label
// different from the one it was first seen with is rejected with an error.
//
// Labels are interned here and the resulting codes carried through — the
// former re-Lookup (whose ok was discarded) could in principle fall back
// to label code 0 and compute signatures against the wrong r-values; the
// codes now come straight from Intern, and a label-consistency check
// guards the per-vertex r-value cache (vertex labels are immutable for
// the life of the stream; a conflicting label would silently corrupt
// every signature delta the vertex participates in).
func (w *Matcher) Insert(e graph.StreamEdge) error {
	if e.U == e.V {
		return fmt.Errorf("window: self-loop %v", e)
	}
	cu := w.ltab.Intern(string(e.LU))
	cv := w.ltab.Intern(string(e.LV))
	node, ok := w.SingleEdgeMotifCodes(cu, cv)
	if !ok {
		return fmt.Errorf("window: edge %v does not match a single-edge motif", e)
	}
	ui := w.verts.Intern(int64(e.U))
	vi := w.verts.Intern(int64(e.V))
	if err := w.checkLabel(ui, e.U, cu); err != nil {
		return err
	}
	if err := w.checkLabel(vi, e.V, cv); err != nil {
		return err
	}
	if _, ok := w.sp.Code(ui); !ok {
		w.sp.SetCode(ui, cu)
	}
	if _, ok := w.sp.Code(vi); !ok {
		w.sp.SetCode(vi, cv)
	}
	return w.InsertInterned(e, ui, vi, cu, cv, node)
}

// checkLabel rejects a label conflict on a vertex the space has already
// labelled.
func (w *Matcher) checkLabel(i uint32, v graph.VertexID, code uint16) error {
	if have, ok := w.sp.Code(i); ok && have != code {
		return fmt.Errorf("window: vertex %d arrived with label %q but was first seen with %q",
			v, w.ltab.Name(code), w.ltab.Name(have))
	}
	return nil
}

// InsertInterned is the pre-interned fast path used by Loom's per-edge
// pipeline: the caller supplies the endpoints' dense indices, label codes
// and the already-matched single-edge motif node, so no map is consulted
// here beyond the duplicate check.
func (w *Matcher) InsertInterned(e graph.StreamEdge, ui, vi uint32, cu, cv uint16, node *tpstry.Node) error {
	if ui == vi {
		return fmt.Errorf("window: self-loop %v", e)
	}
	ie := IEdge{ui, vi}.norm()
	slot, existed := w.edges.ensure(packIEdge(ie))
	if existed {
		return fmt.Errorf("window: duplicate edge %v", e.Edge().Norm())
	}

	w.seq++
	slot.Val.seq = w.seq
	w.fifo = append(w.fifo, winEdge{ie: ie, seq: w.seq})
	w.ensureVertex(ui, cu)
	w.ensureVertex(vi, cv)
	w.vertexRC[ui]++
	w.vertexRC[vi]++

	// The new single-edge match ⟨{e}, m⟩. Its canonical form is known by
	// construction (ie is normalised; a duplicate is impossible — the
	// edge itself was absent until this insert), so it skips addMatch's
	// canonicalisation and dedup entirely.
	m := w.acquireMatch()
	m.Node = node
	m.iedges = append(m.iedges, ie)
	m.fp = intern.Mix64(packIEdge(ie))
	m.verts = append(m.verts, ie.U, ie.V)
	m.degs = append(m.degs, 1, 1)
	single, _ := w.record(m)

	// Alg. 2 lines 3–8: grow each existing match connected to e. Slice
	// headers are stable snapshots: matches added below are appended to
	// the live lists, not these. No snapshot match can already contain e
	// (e was absent from the window until this insert, and live matches
	// reference only window edges) — except the single-edge match just
	// recorded, skipped by pointer.
	ms1, ms2 := w.byVertex[ui], w.byVertex[vi]
	for _, m := range ms1 {
		if m != single {
			w.tryGrow(m, ie)
		}
	}
	for _, m := range ms2 {
		if m != single && !m.containsVertex(ui) { // ui-containing were grown from ms1 already
			w.tryGrow(m, ie)
		}
	}

	// Alg. 2 lines 11–18: join pairs of matches from the two endpoints'
	// (updated) matchList entries. Pairs that cannot produce a new match
	// are pruned before any delta work:
	//
	//   - identical edge sets (fingerprint, then exact): the "join" adds
	//     nothing;
	//   - both-endpoint duplicates: a match containing BOTH endpoints
	//     appears in both lists, so an unequal-size pair (m1, m2) occurs
	//     once per orientation — and tryJoin normalises those to the same
	//     (larger, smaller) call. byVertex lists are creation-ordered
	//     (seq-ascending), so the orientation with m1.seq < m2.seq is the
	//     one the nested loop reaches first; the later mirror is skipped.
	//     Equal-size pairs are not normalised (each orientation grows a
	//     different base match) and both still run.
	//
	// Size and leaf-node pruning live in tryJoin, after its swap.
	ms1, ms2 = w.byVertex[ui], w.byVertex[vi]
	for _, m1 := range ms1 {
		if m1.dead {
			continue
		}
		n1 := len(m1.iedges)
		m1HasV := m1.containsVertex(vi)
		for _, m2 := range ms2 {
			if m2.dead || m1 == m2 {
				continue
			}
			n2 := len(m2.iedges)
			if n1 == n2 {
				if m1.fp == m2.fp && sameIEdges(m1.iedges, m2.iedges) {
					continue // same edge set under a different motif node
				}
			} else if m1HasV && m1.seq > m2.seq && m2.containsVertex(ui) {
				continue // mirror of a pair already joined this round
			}
			w.tryJoin(m1, m2)
		}
	}
	return nil
}

// tryGrow extends match m by the new edge ie (Alg. 2 lines 3–8): the
// 3-factor delta of adding the edge to m's sub-graph is looked up among
// m's trie node's children. The delta comes from the match's cached
// per-vertex degree vector (O(log |verts|)) rather than an edge-set scan,
// and a leaf node (no children) is rejected before any delta work. The
// caller guarantees ie ∉ m (the edge was not in the window when m's
// snapshot was taken).
func (w *Matcher) tryGrow(m *Match, ie IEdge) {
	if m.dead || len(m.iedges) >= w.maxEdges || m.Node.NumChildren() == 0 {
		return
	}
	d := w.deltaForMatch(m, ie)
	if c, ok := m.Node.ChildByDelta(d); ok && w.trie.IsMotif(c, w.threshold) {
		w.addGrown(m, ie, c)
	}
}

// addGrown records the match base ∪ {ie} under node, deriving the
// canonical form incrementally from base's cached state — sorted insert
// into the edge set, one fingerprint XOR, and a copy-and-bump of the
// vertex/degree vectors — instead of addMatch's from-scratch rebuild.
// Dedup (grown duplicates are common: many sub-matches grow to the same
// super-graph) and the per-vertex cap behave exactly as addMatch.
func (w *Matcher) addGrown(base *Match, ie IEdge, node *tpstry.Node) (*Match, bool) {
	nm := w.acquireMatch()
	nm.Node = node
	pos, _ := slices.BinarySearchFunc(base.iedges, ie, CompareIEdges)
	nm.iedges = slices.Grow(nm.iedges, len(base.iedges)+1)
	nm.iedges = append(nm.iedges, base.iedges[:pos]...)
	nm.iedges = append(nm.iedges, ie)
	nm.iedges = append(nm.iedges, base.iedges[pos:]...)
	fp := base.fp ^ intern.Mix64(packIEdge(ie))
	nm.fp = fp
	if slot := w.edges.get(packIEdge(nm.iedges[0])); slot != nil {
		for _, ex := range slot.Val.matches {
			if !ex.dead && ex.fp == fp && ex.Node == node && sameIEdges(ex.iedges, nm.iedges) {
				w.releaseMatch(nm)
				return ex, false
			}
		}
	}
	nm.verts = append(slices.Grow(nm.verts, len(base.verts)+2), base.verts...)
	nm.degs = append(slices.Grow(nm.degs, len(base.degs)+2), base.degs...)
	nm.bumpVertex(ie.U)
	nm.bumpVertex(ie.V)
	return w.record(nm)
}

// bumpVertex adds one unit of in-match degree for v, inserting it into the
// sorted vertex/degree vectors if absent.
func (m *Match) bumpVertex(v uint32) {
	if p, ok := slices.BinarySearch(m.verts, v); ok {
		m.degs[p]++
	} else {
		m.verts = slices.Insert(m.verts, p, v)
		m.degs = slices.Insert(m.degs, p, 1)
	}
}

// deltaForMatch computes the 3 factors that adding edge ie to match m's
// sub-graph would multiply into its signature: the edge factor plus one
// degree factor per endpoint, using each endpoint's degree *within the
// sub-graph* (§2.1's incremental computation, applied stream-side).
// Degrees come from the match's cached vector; label r-values from the
// per-vertex cache.
func (w *Matcher) deltaForMatch(m *Match, ie IEdge) signature.Delta {
	return w.scheme.EdgeDeltaVals(w.vrval[ie.U], int(m.degOf(ie.U)), w.vrval[ie.V], int(m.degOf(ie.V)))
}

// growDelta is deltaForMatch for the intermediate sub-graph of a running
// join grow, reading degrees from the epoch-stamped scratch.
func (w *Matcher) growDelta(ie IEdge) signature.Delta {
	du, dv := 0, 0
	if w.gstamp[ie.U] == w.gepoch {
		du = int(w.gdeg[ie.U])
	}
	if w.gstamp[ie.V] == w.gepoch {
		dv = int(w.gdeg[ie.V])
	}
	return w.scheme.EdgeDeltaVals(w.vrval[ie.U], du, w.vrval[ie.V], dv)
}

// growTouches reports whether edge e shares a vertex with the current
// grow sub-graph — a vertex is in the sub-graph iff its stamped degree is
// positive (a backtracked vertex decays to 0 but stays stamped).
func (w *Matcher) growTouches(e IEdge) bool {
	return (w.gstamp[e.U] == w.gepoch && w.gdeg[e.U] > 0) ||
		(w.gstamp[e.V] == w.gepoch && w.gdeg[e.V] > 0)
}

// growDegInc bumps vertex i's degree in the grow scratch.
func (w *Matcher) growDegInc(i uint32) {
	if w.gstamp[i] != w.gepoch {
		w.gstamp[i] = w.gepoch
		w.gdeg[i] = 0
	}
	w.gdeg[i]++
}

// growDegDec undoes growDegInc on backtrack.
func (w *Matcher) growDegDec(i uint32) { w.gdeg[i]-- }

// growEpochNext invalidates the grow scratch for a fresh join.
func (w *Matcher) growEpochNext() {
	w.gepoch++
	if w.gepoch == 0 { // stamp wraparound: invalidate all stamps
		clear(w.gstamp)
		w.gepoch = 1
	}
}

// CompareIEdges orders interned edges by (U, V); match edge sets are kept
// sorted under it. slices.SortFunc with it is allocation-free, unlike
// sort.Slice's reflective swapper, which the per-edge path cannot afford.
func CompareIEdges(a, b IEdge) int {
	if a.U != b.U {
		return cmp.Compare(a.U, b.U)
	}
	return cmp.Compare(a.V, b.V)
}

func compareEdges(a, b graph.Edge) int {
	if a.U != b.U {
		return cmp.Compare(a.U, b.U)
	}
	return cmp.Compare(a.V, b.V)
}

// sameIEdges reports whether two sorted interned edge sets are equal.
func sameIEdges(a, b []IEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// acquireMatch returns a match from the freelist (or a fresh one), with
// empty edge/vertex slices whose capacity is recycled from a prior life.
func (w *Matcher) acquireMatch() *Match {
	if n := len(w.pool); n > 0 {
		m := w.pool[n-1]
		w.pool[n-1] = nil
		w.pool = w.pool[:n-1]
		return m
	}
	m := &Match{vt: w.verts}
	m.iedges = m.ieInline[:0]
	m.verts = m.vInline[:0]
	m.degs = m.dInline[:0]
	return m
}

// maxPoolMatches bounds the match freelist. The pool exists to serve the
// steady-state insert/evict churn, where demand is a handful of matches
// per edge; during a drain (Flush, large eviction cascades) releases
// vastly outnumber acquires and an unbounded pool would grow to the
// all-time match high-water mark and keep re-paying append growth — the
// only steady allocation left on the eviction path. Beyond the cap,
// released matches are simply dropped for the GC.
const maxPoolMatches = 1024

// releaseMatch returns an unlinked match to the freelist (or drops it once
// the pool is full). The caller must guarantee no index entry still
// references it (freshly rejected by addMatch, or killed and unlinked by
// RemoveIEdges).
func (w *Matcher) releaseMatch(m *Match) {
	if len(w.pool) >= maxPoolMatches {
		return
	}
	m.iedges = m.iedges[:0]
	m.verts = m.verts[:0]
	m.degs = m.degs[:0]
	m.ext = m.ext[:0]
	m.Node = nil
	m.fp = 0
	m.seq = 0
	m.dead = false
	w.pool = append(w.pool, m)
}

// addMatch canonicalises and records an acquired match if it is new and
// the per-vertex cap allows, returning the canonical *Match (existing or
// new) and whether it was created. Every edge of m.iedges must be buffered
// in the window; m.verts, m.degs and m.fp are derived here. A duplicate or
// capped match is released back to the freelist. Dedup is fingerprint-
// first: the fp mismatch rejects unequal edge sets in one word compare,
// and only fp-equal candidates pay the full edge-set comparison.
func (w *Matcher) addMatch(m *Match, node *tpstry.Node) (*Match, bool) {
	m.Node = node
	slices.SortFunc(m.iedges, CompareIEdges)
	var fp uint64
	for _, e := range m.iedges {
		fp ^= intern.Mix64(packIEdge(e))
	}
	m.fp = fp
	// Dedup: an identical match (same edge set, same motif node) already
	// hangs off any of its edges' matchList entries.
	if slot := w.edges.get(packIEdge(m.iedges[0])); slot != nil {
		for _, ex := range slot.Val.matches {
			if !ex.dead && ex.fp == fp && ex.Node == node && sameIEdges(ex.iedges, m.iedges) {
				w.releaseMatch(m)
				return ex, false
			}
		}
	}
	m.deriveVerts()
	return w.record(m)
}

// deriveVerts fills m's distinct vertices, sorted, and its in-match
// degree vector from its edge set.
func (m *Match) deriveVerts() {
	for _, e := range m.iedges {
		m.verts = append(m.verts, e.U, e.V)
	}
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
}

// record registers a fully-canonical match — iedges/verts/degs sorted and
// consistent, fp and Node set — in the matchList indexes, subject to the
// per-vertex cap. The shared tail of addMatch and its fast-path siblings
// (the single-edge insert and addGrown).
func (w *Matcher) record(m *Match) (*Match, bool) {
	for _, v := range m.verts {
		if len(w.byVertex[v]) >= w.maxPerV {
			w.releaseMatch(m)
			return nil, false // cap: do not record (graceful degradation)
		}
	}
	w.mseq++
	m.seq = w.mseq
	w.link(m)
	return m, true
}

// link makes m live: it joins the byVertex list of each of its vertices
// and the match list of each of its edges, after every match of lower seq.
func (w *Matcher) link(m *Match) {
	w.live++
	for _, v := range m.verts {
		w.byVertex[v] = addMatchRef(w.byVertex[v], m)
	}
	for _, e := range m.iedges {
		slot := w.edges.get(packIEdge(e))
		slot.Val.matches = addMatchRef(slot.Val.matches, m)
	}
}

// addMatchRef appends one match-list reference, seeding a fresh list with
// room for the overlap a motif vertex typically accumulates (the default
// 1 → 2 → 4 doubling costs an allocation per step on the insert path).
func addMatchRef(l []*Match, m *Match) []*Match {
	if l == nil {
		l = make([]*Match, 0, 4)
	}
	return append(l, m)
}

// tryJoin attempts to combine two matches (Alg. 2 lines 11–18): edges of
// the smaller match are added to the larger one at a time; every
// intermediate step must land on a motif node of the trie. On success the
// combined match is recorded. All intermediate state lives in reusable
// scratch buffers (joinRest, growRest, the epoch-stamped degree scratch).
//
// Pairs that cannot possibly succeed are rejected before any delta work:
// a larger side already at the motif size bound can only absorb a subset
// (a no-op), and a larger side at a leaf node has no trie link to grow
// along.
func (w *Matcher) tryJoin(m1, m2 *Match) {
	// Grow the larger by the smaller ("we consider each edge from the
	// smaller motif match").
	if len(m2.iedges) > len(m1.iedges) {
		m1, m2 = m2, m1
	}
	if len(m1.iedges) >= w.maxEdges || m1.Node.NumChildren() == 0 {
		return
	}
	// remaining = m2 \ m1, a linear merge of the two sorted edge sets
	// (preserving m2's order, as the filter it replaces did).
	remaining := w.joinRest[:0]
	i := 0
	for _, e := range m2.iedges {
		for i < len(m1.iedges) && CompareIEdges(m1.iedges[i], e) < 0 {
			i++
		}
		if i < len(m1.iedges) && m1.iedges[i] == e {
			i++
			continue
		}
		remaining = append(remaining, e)
	}
	w.joinRest = remaining
	if len(remaining) == 0 {
		return // m2 ⊆ m1: nothing new
	}
	if len(m1.iedges)+len(remaining) > w.maxEdges {
		return // cannot possibly match a motif
	}
	// Seed the degree scratch with m1's cached in-match degrees; grow
	// maintains it incrementally as candidate edges are tried.
	w.growEpochNext()
	for k, v := range m1.verts {
		w.gstamp[v] = w.gepoch
		w.gdeg[v] = m1.degs[k]
	}
	if node, ok := w.grow(m1.Node, remaining, 0); ok {
		nm := w.acquireMatch()
		nm.iedges = append(append(nm.iedges, m1.iedges...), remaining...)
		w.addMatch(nm, node)
	}
}

// grow recursively adds the remaining edges (in any workable order) to the
// grow sub-graph, following motif child links; it reports the final node
// on success. The sub-graph itself is represented only by the epoch-
// stamped per-vertex degree scratch (deltas and the connectivity guard
// need nothing else); the per-depth remaining-edge buffers come from the
// growRest freelist, preserving the relative order of untried edges
// exactly as a fresh copy would.
func (w *Matcher) grow(node *tpstry.Node, remaining []IEdge, depth int) (*tpstry.Node, bool) {
	if len(remaining) == 0 {
		return node, true
	}
	for i, e := range remaining {
		// Connectivity guard: the next edge must touch the sub-graph
		// (trie deltas imply this, but a factor collision could lie).
		if !w.growTouches(e) {
			continue
		}
		d := w.growDelta(e)
		c, ok := node.ChildByDelta(d)
		if !ok || !w.trie.IsMotif(c, w.threshold) {
			continue
		}
		rest := w.growRest[depth][:0]
		rest = append(rest, remaining[:i]...)
		rest = append(rest, remaining[i+1:]...)
		w.growRest[depth] = rest
		w.growDegInc(e.U)
		w.growDegInc(e.V)
		if final, ok := w.grow(c, rest, depth+1); ok {
			return final, true
		}
		w.growDegDec(e.U)
		w.growDegDec(e.V)
	}
	return nil, false
}

// HasEdge reports whether e is currently buffered in the window.
func (w *Matcher) HasEdge(e graph.Edge) bool {
	ie, ok := w.lookupIEdge(e)
	return ok && w.edges.has(packIEdge(ie))
}

// Oldest returns the oldest edge still in the window.
func (w *Matcher) Oldest() (graph.StreamEdge, bool) {
	e, _, ok := w.OldestI()
	return e, ok
}

// OldestI returns the oldest edge still in the window along with its
// interned form. The StreamEdge view is reconstructed (normalised
// orientation) from interned state.
func (w *Matcher) OldestI() (graph.StreamEdge, IEdge, bool) {
	ie, ok := w.OldestIdx()
	if !ok {
		return graph.StreamEdge{}, IEdge{}, false
	}
	return w.streamEdgeOf(ie), ie, true
}

// OldestIdx returns the oldest edge still in the window in interned form
// only — Loom's eviction entry point, which never needs the external
// view.
func (w *Matcher) OldestIdx() (IEdge, bool) {
	w.maybeCompactFIFO()
	for w.head < len(w.fifo) {
		we := w.fifo[w.head]
		if w.fifoLive(we) {
			return we.ie, true
		}
		w.head++ // tombstoned by an earlier removal
	}
	w.fifo = w.fifo[:0] // drained
	w.head = 0
	return IEdge{}, false
}

// streamEdgeOf rebuilds the external StreamEdge view of a buffered edge
// from the vertex table and per-vertex label codes (vertex labels are
// immutable for the life of the stream). Orientation is the normalised
// one; consumers treat window edges as undirected.
func (w *Matcher) streamEdgeOf(ie IEdge) graph.StreamEdge {
	cu, _ := w.sp.Code(ie.U)
	cv, _ := w.sp.Code(ie.V)
	return graph.StreamEdge{
		U: graph.VertexID(w.verts.ID(ie.U)), LU: graph.Label(w.ltab.Name(cu)),
		V: graph.VertexID(w.verts.ID(ie.V)), LV: graph.Label(w.ltab.Name(cv)),
	}
}

// minCompactFIFO is the slice length below which FIFO compaction is not
// worth the copy.
const minCompactFIFO = 64

// maybeCompactFIFO rewrites the FIFO in place once the tombstoned prefix
// exceeds half the slice, dropping interior tombstones along the way. The
// FIFO would otherwise grow for the life of the stream — one winEdge per
// inserted edge — even though only the most recent t edges are live.
// Amortised O(1): each compaction copies at most half the entries appended
// since the last one.
func (w *Matcher) maybeCompactFIFO() {
	if w.head < minCompactFIFO || w.head <= len(w.fifo)/2 {
		return
	}
	n := 0
	for i := w.head; i < len(w.fifo); i++ {
		if w.fifoLive(w.fifo[i]) {
			w.fifo[n] = w.fifo[i]
			n++
		}
	}
	w.fifo = w.fifo[:n]
	w.head = 0
}

// fifoLive reports whether a FIFO entry is the live residency of its
// edge: the edge is buffered AND the buffered copy was inserted by this
// entry. Without the sequence check, an edge removed mid-window and
// later re-inserted would alias its old (older-looking) FIFO entry and
// be evicted almost immediately, defeating §4's "the longer an edge
// remains in the sliding window, the better the partitioning decision".
func (w *Matcher) fifoLive(we winEdge) bool {
	s := w.edges.get(packIEdge(we.ie))
	return s != nil && s.Val.seq == we.seq
}

// MatchesContainingI appends to buf the live matches whose edge sets
// include the interned edge ie — the set Me of §4 when ie is being
// evicted — and returns the extended slice. Passing a reused buf[:0]
// makes the eviction path allocation-free; the appended *Match pointers
// are valid until the matches' edges are removed from the window.
func (w *Matcher) MatchesContainingI(ie IEdge, buf []*Match) []*Match {
	slot := w.edges.get(packIEdge(ie.norm()))
	if slot == nil {
		return buf
	}
	for _, m := range slot.Val.matches {
		if !m.dead {
			buf = append(buf, m)
		}
	}
	return buf
}

// MatchesContaining is MatchesContainingI for an external edge, returning
// a fresh slice (cold-path convenience).
func (w *Matcher) MatchesContaining(e graph.Edge) []*Match {
	ie, ok := w.lookupIEdge(e)
	if !ok {
		return nil
	}
	return w.MatchesContainingI(ie, nil)
}

func (w *Matcher) lookupIEdge(e graph.Edge) (IEdge, bool) {
	ui, ok := w.verts.Lookup(int64(e.U))
	if !ok {
		return IEdge{}, false
	}
	vi, ok := w.verts.Lookup(int64(e.V))
	if !ok {
		return IEdge{}, false
	}
	return IEdge{ui, vi}.norm(), true
}

// RemoveIEdges drops the given interned edges from the window and kills
// every match whose edge set intersects them ("matches in Me which are not
// bid on by the winning partition are dropped from the matchList map, as
// some of their constituent edges have been assigned", §4). Edges not in
// the window are ignored. Remaining edges stay available for future
// matches.
func (w *Matcher) RemoveIEdges(iedges []IEdge) {
	killed := w.killed[:0]
	for _, ie := range iedges {
		ie = ie.norm()
		slot := w.edges.get(packIEdge(ie))
		if slot == nil {
			continue // not in the window (or a duplicate in iedges)
		}
		w.vertexRC[ie.U]--
		w.vertexRC[ie.V]--
		for _, m := range slot.Val.matches {
			if !m.dead {
				m.dead = true
				w.live--
				killed = append(killed, m)
			}
		}
		w.edges.removeSlot(slot)
	}
	// Unlink killed matches from exactly the index entries that hold
	// them; per-match vertex/edge sets are small, so this is O(|killed|)
	// rather than a full index sweep. Unlinked matches return to the
	// freelist: callers holding them (the eviction path's Me buffer)
	// drop their references before the next insert can recycle them.
	for _, m := range killed {
		for _, v := range m.verts {
			w.byVertex[v] = dropDead(w.byVertex[v])
		}
		for _, e := range m.iedges {
			if slot := w.edges.get(packIEdge(e)); slot != nil {
				slot.Val.matches = dropDead(slot.Val.matches)
			}
		}
	}
	w.killed = killed[:0]
	for _, m := range killed {
		w.releaseMatch(m)
	}
}

// RemoveEdges is RemoveIEdges for external edges.
func (w *Matcher) RemoveEdges(edges []graph.Edge) {
	ies := make([]IEdge, 0, len(edges))
	for _, e := range edges {
		if ie, ok := w.lookupIEdge(e); ok {
			ies = append(ies, ie)
		}
	}
	w.RemoveIEdges(ies)
}

func dropDead(list []*Match) []*Match {
	live := list[:0]
	for _, m := range list {
		if !m.dead {
			live = append(live, m)
		}
	}
	return live
}

// WindowEdges returns the edges currently buffered, oldest first (used by
// Flush and tests).
func (w *Matcher) WindowEdges() []graph.StreamEdge {
	out := make([]graph.StreamEdge, 0, w.edges.Len())
	for i := w.head; i < len(w.fifo); i++ {
		if w.fifoLive(w.fifo[i]) {
			out = append(out, w.streamEdgeOf(w.fifo[i].ie))
		}
	}
	return out
}

// FIFOLen returns the length of the internal FIFO slice, including
// tombstoned entries not yet compacted away (diagnostics; the soak tests
// assert it stays bounded on streams much longer than the window).
func (w *Matcher) FIFOLen() int { return len(w.fifo) }

// Support returns the normalised support of a match's motif.
func (w *Matcher) Support(m *Match) float64 { return w.trie.SupportOf(m.Node) }
