// Package graph provides the labelled-graph substrate used throughout Loom:
// vertices carrying labels from a small alphabet, undirected (or directed)
// edges, adjacency indexes, and deterministic stream orderings of a graph's
// edges (breadth-first, depth-first, random) as used by the paper's
// evaluation (§5.1).
//
// A labelled graph G = (V, E, LV, fl) follows §1.3 of the paper: V is a set
// of vertices, E a set of pairwise edges, LV a set of vertex labels and
// fl : V → LV a surjective mapping of vertices to labels. Graphs here are
// simple (no self-loops, no parallel edges) and undirected by default; the
// directed extension the paper mentions inline is supported via NewDirected.
//
// # Storage
//
// The graph is engineered for bounded memory at 10⁸-edge scale. External
// vertex IDs and label strings are interned (internal/intern) at insertion;
// everything downstream is indexed by the dense vertex index:
//
//   - Adjacency is stored per vertex as dense uint32 indices in chunked
//     delta-varint-compressed blocks with a small raw tail (adjacency.go):
//     O(1) hot appends, block-at-a-time decode into caller scratch, ~2–4
//     bytes per adjacency entry on real streams. Neighbors therefore takes
//     a caller-owned scratch buffer instead of exposing an internal slice.
//   - Duplicate edges are detected by a 4-byte-per-slot fingerprint set
//     (internal/container.FP32Set) verified against the adjacency lists —
//     exact, one cache line per probe, no per-edge map or closure
//     allocation.
//   - The insertion-order edge sequence lives in a chunked delta-encoded
//     log (elog.go) that can spill frozen chunks to disk (SpillTo) through
//     the same wal.FS abstraction the WAL uses; replay reads chunks
//     sequentially, so replay memory is one chunk regardless of stream
//     length.
//
// Insertion order is preserved everywhere — Edges, Neighbors and the
// stream orderings built on them are bit-identical to the earlier
// slice-backed representation.
package graph

import (
	"fmt"
	"sort"
	"unsafe"

	"loom/internal/container"
	"loom/internal/intern"
	"loom/internal/wal"
)

// VertexID identifies a vertex. IDs are opaque to the library; datasets and
// generators choose them. They need not be dense.
type VertexID int64

// Label is a vertex label drawn from the (typically small) alphabet LV.
type Label string

// Edge is a pair of vertex endpoints. For undirected graphs the pair is kept
// in normalised (U <= V) order so an Edge value can be used as a map key.
type Edge struct {
	U, V VertexID
}

// Norm returns e with endpoints in canonical order for undirected keying.
func (e Edge) Norm() Edge {
	if e.V < e.U {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e; callers always hold an incident vertex.
func (e Edge) Other(v VertexID) VertexID {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// HasEndpoint reports whether v is one of e's endpoints.
func (e Edge) HasEndpoint(v VertexID) bool { return e.U == v || e.V == v }

func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a simple labelled graph. The zero value is not usable; construct
// with New or NewDirected.
type Graph struct {
	directed bool

	// sp holds the vertices, labels and label codes (verts is its vertex
	// table, cached for the hot path); adj is indexed by its dense index.
	sp    *intern.Space
	verts *intern.VertexTable
	adj   []vertexAdj // compressed adjacency per dense vertex index

	// eset (fingerprints of packed dense index pairs, verified against
	// adjacency) detects duplicates; log preserves insertion order so that
	// iteration, orderings, replay and tests are deterministic.
	eset container.FP32Set
	log  edgeLog

	// dupCache is a direct-mapped cache of packed index pairs VerifyKey has
	// confirmed present, lazily allocated on the first confirmed duplicate.
	// It short-circuits the adjacency scan for repeated duplicates.
	dupCache []uint64
}

// New returns an empty undirected labelled graph with its own vertex
// space.
func New() *Graph { return NewIn(intern.NewSpace(0)) }

// NewIn returns an empty undirected labelled graph over a shared vertex
// space: the space's vertices are the graph's, and the graph interns and
// labels new vertices into it. Other components may share the space (Loom's
// partitioner hands its tracker, window and core the same one) as long as
// they only intern vertices the graph has already recorded.
func NewIn(sp *intern.Space) *Graph { return &Graph{sp: sp, verts: sp.Verts()} }

// Space returns the graph's vertex space.
func (g *Graph) Space() *intern.Space { return g.sp }

// NewDirected returns an empty directed labelled graph. Directed edges are
// stored (U→V); Neighbors returns out-neighbours and InNeighbors is provided
// for the reverse direction.
func NewDirected() *Graph {
	g := New()
	g.directed = true
	return g
}

// Directed reports whether g stores directed edges.
func (g *Graph) Directed() bool { return g.directed }

// Reserve pre-sizes the duplicate-edge set for the expected edge count,
// avoiding incremental rehashes during bulk ingest.
func (g *Graph) Reserve(edges int) {
	if edges > 0 {
		g.eset.Reserve(edges)
	}
}

// SpillTo configures the edge log to spill frozen chunks to dir on fs
// (production callers pass wal.OS()), creating dir and immediately
// spilling any chunks already frozen. Resident log memory is thereafter
// bounded by the active chunk. A failed spill is not fatal: the chunk
// stays resident and Compact retries.
func (g *Graph) SpillTo(fs wal.FS, dir string) error {
	if err := fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("graph: spill dir: %w", err)
	}
	g.log.fs, g.log.dir = fs, dir
	return g.log.compact()
}

// Compact bounds resident memory at a quiesce point: it compresses every
// vertex's partial adjacency tail and drops buffer growth slack, and
// retries any edge-log spills that previously failed. Ingest after a
// Compact is fully supported — each touched vertex pays one re-allocation
// on its next append. The partitioner calls it at checkpoint.
func (g *Graph) Compact() error {
	for i := range g.adj {
		g.adj[i].shrink()
	}
	return g.log.compact()
}

// SpillStats reports the edge log's on-disk residency: spilled chunk
// count and bytes, and the latest spill error (nil when all frozen
// chunks are on disk or spilling is not configured).
func (g *Graph) SpillStats() (chunks int, bytes int64, err error) {
	return g.log.spilled, g.log.spillB, g.log.spillErr
}

// packIdx packs a dense index pair into the edge-set key, normalising for
// undirected graphs.
func (g *Graph) packIdx(ui, vi uint32) uint64 {
	if !g.directed && vi < ui {
		ui, vi = vi, ui
	}
	return uint64(ui)<<32 | uint64(vi)
}

// dupCacheSlots sizes the direct-mapped confirmed-duplicate cache for a
// graph with verts vertices: a power of two between 1k and 32k slots
// (8 KiB–256 KiB). Scaling with |V| keeps the cache negligible against
// small graphs while covering the hub-pair population of large ones.
func dupCacheSlots(verts int) int {
	n := 1 << 10
	for n < verts && n < 1<<15 {
		n <<= 1
	}
	return n
}

// noteDup records a confirmed-present key in the duplicate cache,
// (re)allocating it lazily — and growing it as the vertex set outgrows
// it — on a power-of-two schedule. Dropping old entries on growth is
// safe: the cache only short-circuits a scan that would succeed anyway.
func (g *Graph) noteDup(pk uint64) {
	if want := dupCacheSlots(len(g.adj)); len(g.dupCache) < want {
		g.dupCache = make([]uint64, want)
	}
	g.dupCache[intern.Mix64(pk)&uint64(len(g.dupCache)-1)] = pk
}

// VerifyKey reports whether the packed dense index pair pk is a recorded
// edge, by scanning the shorter endpoint's adjacency list. It is the
// ground truth behind the fingerprint edge set (container.KeyVerifier);
// callers use HasEdge. Confirmed-present keys are remembered in a small
// direct-mapped cache, so dup-heavy streams pay the adjacency scan once
// per hot pair instead of on every repeat — safe because edges are only
// ever added, so "present" can never go stale.
func (g *Graph) VerifyKey(pk uint64) bool {
	if n := len(g.dupCache); n > 0 && g.dupCache[intern.Mix64(pk)&uint64(n-1)] == pk {
		return true
	}
	ui, vi := uint32(pk>>32), uint32(pk)
	var found bool
	switch {
	case g.directed:
		found = g.adj[ui].contains(vi)
	case g.adj[ui].deg <= g.adj[vi].deg:
		found = g.adj[ui].contains(vi)
	default:
		found = g.adj[vi].contains(ui)
	}
	if found {
		g.noteDup(pk)
	}
	return found
}

// key returns the canonical Edge value for (u,v): normalised for
// undirected graphs, as-is for directed ones.
func (g *Graph) key(u, v VertexID) Edge {
	e := Edge{u, v}
	if !g.directed {
		e = e.Norm()
	}
	return e
}

// ensureVertex interns id with label l (or validates the label if id is
// already present) and returns its dense index.
func (g *Graph) ensureVertex(id VertexID, l Label) (uint32, error) {
	i := g.verts.Intern(int64(id))
	if c, ok := g.sp.Code(i); ok {
		if have := g.sp.Labels().Name(c); have != string(l) {
			return 0, fmt.Errorf("graph: vertex %d already has label %q (got %q)", id, have, l)
		}
		return i, nil
	}
	g.sp.SetCode(i, g.sp.Labels().Intern(string(l)))
	g.cover()
	return i, nil
}

// cover extends the adjacency to every vertex of the space.
func (g *Graph) cover() {
	for len(g.adj) < g.verts.Len() {
		g.adj = append(g.adj, vertexAdj{})
	}
}

// name returns the label of dense vertex i.
func (g *Graph) name(i uint32) Label {
	c, _ := g.sp.Code(i)
	return Label(g.sp.Labels().Name(c))
}

// AddVertex inserts vertex id with the given label. Re-adding an existing
// vertex with the same label is a no-op; with a different label it returns
// an error, since fl is a function.
func (g *Graph) AddVertex(id VertexID, l Label) error {
	_, err := g.ensureVertex(id, l)
	return err
}

// HasVertex reports whether id is in the graph.
func (g *Graph) HasVertex(id VertexID) bool {
	_, ok := g.verts.Lookup(int64(id))
	return ok
}

// Label returns the label of id and whether id exists.
func (g *Graph) Label(id VertexID) (Label, bool) {
	i, ok := g.verts.Lookup(int64(id))
	if !ok {
		return "", false
	}
	return g.name(i), true
}

// MustLabel returns the label of id, panicking if id is absent. Intended for
// internal hot paths where existence is an invariant.
func (g *Graph) MustLabel(id VertexID) Label {
	i, ok := g.verts.Lookup(int64(id))
	if !ok {
		panic(fmt.Sprintf("graph: vertex %d not in graph", id))
	}
	return g.name(i)
}

// addEdgeIdx records the edge between dense indices (ui, vi), given in
// stream orientation. It reports false for a duplicate.
func (g *Graph) addEdgeIdx(ui, vi uint32) bool {
	if !g.eset.Add(g.packIdx(ui, vi), g) {
		return false
	}
	g.log.append(ui, vi)
	g.adj[ui].add(vi)
	if !g.directed {
		g.adj[vi].add(ui)
	}
	return true
}

// AddEdge inserts the edge (u,v). Both endpoints must already exist.
// Self-loops and duplicate edges are rejected with an error: the paper's
// graphs are simple, and rejecting rather than silently ignoring surfaces
// generator bugs early.
func (g *Graph) AddEdge(u, v VertexID) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	ui, ok := g.verts.Lookup(int64(u))
	if !ok {
		return fmt.Errorf("graph: edge endpoint %d not in graph", u)
	}
	vi, ok := g.verts.Lookup(int64(v))
	if !ok {
		return fmt.Errorf("graph: edge endpoint %d not in graph", v)
	}
	if !g.addEdgeIdx(ui, vi) {
		return fmt.Errorf("graph: duplicate edge %v", g.key(u, v))
	}
	return nil
}

// EnsureEdge inserts vertices u and v (with labels lu, lv) if absent, then
// the edge between them. It reports whether a new edge was added; duplicate
// edges and self-loops return false without error, making it convenient for
// ingesting noisy streams. A label conflict still returns an error.
//
// This is the streaming hot path: two vertex-table probes, one
// fingerprint-set probe, and the O(1) adjacency and log appends.
func (g *Graph) EnsureEdge(u VertexID, lu Label, v VertexID, lv Label) (bool, error) {
	ui, err := g.ensureVertex(u, lu)
	if err != nil {
		return false, err
	}
	vi, err := g.ensureVertex(v, lv)
	if err != nil {
		return false, err
	}
	if u == v {
		return false, nil
	}
	return g.addEdgeIdx(ui, vi), nil
}

// HasEdge reports whether the edge (u,v) exists. For undirected graphs the
// order of u and v does not matter.
func (g *Graph) HasEdge(u, v VertexID) bool {
	ui, ok := g.verts.Lookup(int64(u))
	if !ok {
		return false
	}
	vi, ok := g.verts.Lookup(int64(v))
	if !ok {
		return false
	}
	return g.eset.Contains(g.packIdx(ui, vi), g)
}

// Degree returns the number of edges incident to v (out-degree for directed
// graphs).
func (g *Graph) Degree(v VertexID) int {
	i, ok := g.verts.Lookup(int64(v))
	if !ok {
		return 0
	}
	return int(g.adj[i].deg)
}

// Neighbors appends the neighbours of v (out-neighbours for directed
// graphs) to buf in insertion order and returns the extended slice. Pass
// a reused scratch as buf[:0] to amortise the decode allocation; pass nil
// for a fresh slice. A vertex not in the graph appends nothing.
func (g *Graph) Neighbors(v VertexID, buf []VertexID) []VertexID {
	i, ok := g.verts.Lookup(int64(v))
	if !ok {
		return buf
	}
	return g.appendNeighbors(i, buf)
}

// appendNeighbors is Neighbors for a dense index the caller already holds.
func (g *Graph) appendNeighbors(i uint32, buf []VertexID) []VertexID {
	a := &g.adj[i]
	if need := len(buf) + int(a.deg); cap(buf) < need {
		nb := make([]VertexID, len(buf), need)
		copy(nb, buf)
		buf = nb
	}
	ids := g.verts.IDs()
	a.each(func(n uint32) bool {
		buf = append(buf, VertexID(ids[n]))
		return true
	})
	return buf
}

// EachNeighbor invokes fn for each neighbour of v in insertion order until
// fn returns false, without materialising the list.
func (g *Graph) EachNeighbor(v VertexID, fn func(VertexID) bool) {
	i, ok := g.verts.Lookup(int64(v))
	if !ok {
		return
	}
	ids := g.verts.IDs()
	g.adj[i].each(func(n uint32) bool { return fn(VertexID(ids[n])) })
}

// InNeighbors returns, for a directed graph, the vertices with an edge into
// v. It is computed on demand by a log replay and is O(|E|); directed
// support exists for the paper's "extends to directed graphs" remark, not
// for hot paths.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	if !g.directed {
		return g.Neighbors(v, nil)
	}
	ti, ok := g.verts.Lookup(int64(v))
	if !ok {
		return nil
	}
	ids := g.verts.IDs()
	var in []VertexID
	err := g.log.view().each(func(ui, vi uint32) error {
		if vi == ti {
			in = append(in, VertexID(ids[ui]))
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("graph: edge log replay: %v", err))
	}
	return in
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.verts.Len() }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.log.n }

// Vertices returns all vertex IDs in insertion order. The returned slice is
// a copy and may be modified by the caller.
func (g *Graph) Vertices() []VertexID {
	ids := g.verts.IDs()
	out := make([]VertexID, len(ids))
	for i, id := range ids {
		out[i] = VertexID(id)
	}
	return out
}

// Dense index reads: vertices are numbered 0..NumVertices()-1 in
// first-seen order, and these accessors let whole-graph passes walk that
// space without an external-ID lookup per step.

// IDs returns the external vertex IDs indexed by dense index. The slice is
// owned by the graph and must not be modified.
func (g *Graph) IDs() []int64 { return g.verts.IDs() }

// LabelCode returns the label code of dense vertex i.
func (g *Graph) LabelCode(i uint32) uint16 {
	c, _ := g.sp.Code(i)
	return c
}

// LabelCodeOf returns the code of label l, or false when no vertex
// carries it.
func (g *Graph) LabelCodeOf(l Label) (uint16, bool) { return g.sp.Labels().Lookup(string(l)) }

// AppendNeighborIdx appends the dense indices of dense vertex i's
// neighbours (out-neighbours for directed graphs) to buf in insertion
// order and returns the extended slice.
func (g *Graph) AppendNeighborIdx(i uint32, buf []uint32) []uint32 {
	return g.adj[i].appendTo(buf)
}

// EachEdge invokes fn for every edge in insertion order (normalised for
// undirected graphs, stream orientation for directed ones), replaying the
// edge log one chunk at a time — including chunks spilled to disk. fn
// returning an error stops the replay; a read error on a spilled chunk is
// returned as-is.
func (g *Graph) EachEdge(fn func(Edge) error) error {
	ids := g.verts.IDs()
	directed := g.directed
	return g.log.view().each(func(ui, vi uint32) error {
		e := Edge{VertexID(ids[ui]), VertexID(ids[vi])}
		if !directed {
			e = e.Norm()
		}
		return fn(e)
	})
}

// AppendState writes the graph's checkpoint section: the edge log as
// dense index pairs in stream orientation, replayed straight out of the
// compressed log. Its vertices and labels are the space's, which the
// caller writes. A spilled chunk that cannot be read back is returned as
// an error, with a partial section left in e.
func (g *Graph) AppendState(e *wal.Enc) error {
	e.U32(uint32(g.log.n))
	return g.log.view().each(func(ui, vi uint32) error {
		e.U32(ui)
		e.U32(vi)
		return nil
	})
}

// RestoreState reads an AppendState section into an empty graph whose
// space already holds every vertex and label. Each pair must name two
// distinct labelled vertices of the space and must not repeat an earlier
// one.
func (g *Graph) RestoreState(d *wal.Dec) error {
	if g.log.n != 0 {
		return fmt.Errorf("graph: RestoreState on a non-empty graph (%d edges)", g.log.n)
	}
	g.cover()
	for k := d.Len(8); k > 0; k-- {
		ui, vi := d.U32(), d.U32()
		for _, i := range [2]uint32{ui, vi} {
			if _, ok := g.sp.Code(i); !ok || int(i) >= len(g.adj) {
				return fmt.Errorf("graph: restored edge %d-%d: %d is not a labelled vertex", ui, vi, i)
			}
		}
		if ui == vi {
			return fmt.Errorf("graph: restored edge %d-%d is a self-loop", ui, vi)
		}
		if !g.addEdgeIdx(ui, vi) {
			return fmt.Errorf("graph: restored edge %d-%d is a duplicate", ui, vi)
		}
	}
	return d.Err()
}

// Edges returns all edges in insertion order. The returned slice is a
// copy. It panics if a spilled log chunk cannot be read back (use
// EachEdge for error-aware iteration); in-memory graphs cannot fail.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.log.n)
	err := g.EachEdge(func(e Edge) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("graph: edge log replay: %v", err))
	}
	return out
}

// Labels returns the distinct labels in use, sorted, i.e. the alphabet LV.
func (g *Graph) Labels() []Label {
	names := g.sp.Labels().Names()
	out := make([]Label, len(names))
	for i, n := range names {
		out[i] = Label(n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LabelHistogram returns the number of vertices per label.
func (g *Graph) LabelHistogram() map[Label]int {
	h := make(map[Label]int)
	for i := range g.verts.Len() {
		h[g.name(uint32(i))]++
	}
	return h
}

// Clone returns a deep copy of g. The clone shares the original's
// immutable frozen log chunks (and reads already-spilled ones from the
// same directory) but never spills new chunks itself.
func (g *Graph) Clone() *Graph {
	sp := g.sp.Clone()
	c := &Graph{
		directed: g.directed,
		sp:       sp,
		verts:    sp.Verts(),
		adj:      make([]vertexAdj, len(g.adj)),
		eset:     g.eset.Clone(),
		log:      g.log.clone(),
	}
	for i := range g.adj {
		c.adj[i] = g.adj[i].clone()
	}
	if g.dupCache != nil {
		c.dupCache = append([]uint64(nil), g.dupCache...)
	}
	return c
}

// EdgeLabels returns the labels of an edge's endpoints in (U,V) order.
func (g *Graph) EdgeLabels(e Edge) (Label, Label) {
	lu, _ := g.Label(e.U)
	lv, _ := g.Label(e.V)
	return lu, lv
}

// Replay is an immutable point-in-time capture of the recorded stream:
// the accepted edges in arrival order and orientation, with their labels.
// Capture is O(1) — it pins append-only slice headers and the log's
// chunk list — and Each is safe without any lock while the graph keeps
// ingesting, so the partitioner's Evaluate/Simulate replay edges without
// stalling the stream. A Replay holds no materialised edge slice: memory
// during Each is one log chunk.
type Replay struct {
	directed bool
	ids      []int64
	vlabel   []uint16
	names    []string
	lv       logView
}

// CaptureReplay captures the recorded stream. Call with the graph's
// writer quiescent (the partitioner captures under its ingest lock).
func (g *Graph) CaptureReplay() Replay {
	return Replay{
		directed: g.directed,
		ids:      g.verts.IDs(),
		vlabel:   g.sp.Codes(),
		names:    g.sp.Labels().Names(),
		lv:       g.log.view(),
	}
}

// NumEdges returns the number of captured edges.
func (r Replay) NumEdges() int { return r.lv.len() }

// Each invokes fn for every captured edge in arrival order, with the
// original stream orientation and the endpoint labels. fn returning an
// error stops the replay.
func (r Replay) Each(fn func(StreamEdge) error) error {
	return r.lv.each(func(ui, vi uint32) error {
		return fn(StreamEdge{
			U: VertexID(r.ids[ui]), LU: Label(r.names[r.vlabel[ui]]),
			V: VertexID(r.ids[vi]), LV: Label(r.names[r.vlabel[vi]]),
		})
	})
}

// MemStats breaks down the recorded graph's memory footprint. The vertex
// table and the label codes belong to the graph's space, which Loom's
// partitioner shares with its tracker, window and core; they are counted
// here, once, as the graph's (the label table's few names are not).
type MemStats struct {
	VertexBytes  int   // the space's vertex table: slot array + reverse ID mapping
	LabelBytes   int   // the space's per-vertex label codes
	AdjBytes     int   // compressed adjacency: buffers + fixed per-vertex state
	EdgeSetBytes int   // duplicate-edge fingerprint slots
	LogBytes     int   // resident edge-log chunks + active tail
	SpilledBytes int64 // edge-log bytes resident on disk instead of memory
	Total        int   // sum of the in-memory fields
}

// BytesPerEdge returns resident in-memory bytes per recorded edge.
func (m MemStats) BytesPerEdge(edges int) float64 {
	if edges == 0 {
		return 0
	}
	return float64(m.Total) / float64(edges)
}

// Mem returns the graph's memory breakdown. O(|V|) — it walks the
// per-vertex adjacency headers — so callers sample it, not per-edge.
func (g *Graph) Mem() MemStats {
	m := MemStats{
		VertexBytes:  g.verts.MemBytes(),
		LabelBytes:   cap(g.sp.Codes()) * 2,
		AdjBytes:     len(g.adj) * int(unsafe.Sizeof(vertexAdj{})),
		EdgeSetBytes: g.eset.Bytes() + cap(g.dupCache)*8,
		LogBytes:     g.log.bytes(),
		SpilledBytes: g.log.spillB,
	}
	for i := range g.adj {
		m.AdjBytes += g.adj[i].bytes()
	}
	m.Total = m.VertexBytes + m.LabelBytes + m.AdjBytes + m.EdgeSetBytes + m.LogBytes
	return m
}

// String summarises the graph.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph{%s |V|=%d |E|=%d |LV|=%d}", kind, g.NumVertices(), g.NumEdges(), len(g.Labels()))
}
