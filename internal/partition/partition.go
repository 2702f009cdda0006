// Package partition provides the vertex-centric partitioning substrate of
// Loom: shared state tracking (vertex → partition assignments, sizes,
// observed adjacency), the quality metrics of §1.3/§5 (edge-cut, imbalance,
// communication volume), and the three baseline streaming partitioners the
// paper evaluates against — Hash, LDG (Stanton & Kliot) and Fennel
// (Tsourakakis et al.).
//
// A vertex-centric graph partitioning is a disjoint family of vertex sets
// P_k(G) = {V1, …, Vk}; an edge is intra-partition when both endpoints land
// in the same set (§1.3). All partitioners here consume edge streams: when
// an edge arrives, any endpoint not yet assigned is placed using the
// partitioner's heuristic (the paper notes "LDG may partition either vertex
// or edge streams").
//
// Hot-path state is slice-backed: external vertex IDs are interned to dense
// uint32 indices (internal/intern) and assignments/adjacency are plain
// slices indexed by them. The *Idx methods operate directly on dense
// indices — streaming partitioners intern each endpoint once per edge and
// stay on the index forms; the VertexID forms remain as convenience
// wrappers for tests and cold paths.
package partition

import (
	"fmt"
	"sync/atomic"

	"loom/internal/graph"
	"loom/internal/intern"
)

// ID identifies a partition, 0..k-1. Unassigned is the sentinel for
// vertices not (yet) placed — during streaming, the contents of Loom's
// sliding window Ptemp.
type ID int

// Unassigned marks a vertex without a partition.
const Unassigned ID = -1

// DefaultImbalance is the slack factor ν shared by Fennel's capacity
// constraint and Loom's maximum imbalance b (§4: "set the maximum imbalance
// to b = 1.1, emulating Fennel").
const DefaultImbalance = 1.1

// Streamer is a streaming edge partitioner: it consumes stream edges one at
// a time or in batches and yields a vertex assignment. Hash, LDG, Fennel
// and Loom all implement it. Streamers themselves are single-threaded; the
// public loom.Partitioner provides the concurrency layer on top.
type Streamer interface {
	// Name identifies the algorithm in reports ("hash", "ldg", …).
	Name() string
	// ProcessEdge ingests the next edge of the graph stream.
	ProcessEdge(e graph.StreamEdge)
	// ProcessEdges ingests a batch of stream edges in order. Placements
	// are identical to calling ProcessEdge per element; the batch form
	// exists so callers can amortise per-call overhead (locking,
	// interface dispatch) over many edges.
	ProcessEdges(batch []graph.StreamEdge)
	// Flush completes pending work (drains any window); after Flush every
	// observed vertex has a partition.
	Flush()
	// Assignment returns the current vertex → partition mapping. The
	// returned value copies the per-vertex placements but shares the
	// (grow-only) vertex table with the streamer.
	Assignment() *Assignment
	// Snapshot returns a fully isolated copy of the current assignment:
	// placements, sizes and the vertex table are all deep-copied, so the
	// snapshot stays consistent and race-free while streaming continues.
	Snapshot() *Assignment
}

// Assignment is the result of a partitioning run: a dense slice of
// partition IDs indexed by interned vertex, plus the table that maps
// external vertex IDs to those indices.
type Assignment struct {
	K     int
	Sizes []int // vertex count per partition

	verts    *intern.VertexTable
	parts    []ID // per dense vertex index; Unassigned for unplaced
	assigned int
}

// NewAssignment returns an empty assignment over k partitions with its own
// vertex table.
func NewAssignment(k int) *Assignment {
	return &Assignment{K: k, Sizes: make([]int, k), verts: intern.NewVertexTable(0)}
}

// AssignmentOf builds an assignment from an explicit vertex → partition
// map (test and tooling convenience). Sizes are derived from the map.
func AssignmentOf(k int, parts map[graph.VertexID]ID) *Assignment {
	a := NewAssignment(k)
	for v, p := range parts {
		a.Set(v, p)
	}
	return a
}

// NewAssignmentFrom wraps an existing dense parts slice (indexed by verts'
// dense indices) as an Assignment, deriving sizes. The slice and table are
// retained, not copied.
func NewAssignmentFrom(k int, verts *intern.VertexTable, parts []ID) *Assignment {
	a := &Assignment{K: k, Sizes: make([]int, k), verts: verts, parts: parts}
	for _, p := range parts {
		if p != Unassigned {
			a.Sizes[p]++
			a.assigned++
		}
	}
	return a
}

// Of returns v's partition, or Unassigned.
func (a *Assignment) Of(v graph.VertexID) ID {
	if a.verts == nil {
		return Unassigned
	}
	i, ok := a.verts.Lookup(int64(v))
	if !ok || int(i) >= len(a.parts) {
		return Unassigned
	}
	return a.parts[i]
}

// Set places (or re-places) v in partition p, maintaining Sizes. Unlike the
// Tracker's Assign, re-assignment is allowed: an Assignment is a snapshot
// under construction (refinement, deserialisation), not streaming state.
func (a *Assignment) Set(v graph.VertexID, p ID) {
	if p < 0 || int(p) >= a.K {
		panic(fmt.Sprintf("partition: bad partition id %d (k=%d)", p, a.K))
	}
	i := a.verts.Intern(int64(v))
	for len(a.parts) <= int(i) {
		a.parts = append(a.parts, Unassigned)
	}
	if old := a.parts[i]; old != Unassigned {
		a.Sizes[old]--
	} else {
		a.assigned++
	}
	a.parts[i] = p
	a.Sizes[p]++
}

// NumAssigned returns the number of assigned vertices.
func (a *Assignment) NumAssigned() int { return a.assigned }

// Each calls f for every assigned vertex in dense-index (first-seen) order.
func (a *Assignment) Each(f func(v graph.VertexID, p ID)) {
	for i, p := range a.parts {
		if p != Unassigned {
			f(graph.VertexID(a.verts.ID(uint32(i))), p)
		}
	}
}

// Parts materialises the assignment as a vertex → partition map (cold-path
// convenience for reports and tests; the hot-path representation is the
// dense slice).
func (a *Assignment) Parts() map[graph.VertexID]ID {
	out := make(map[graph.VertexID]ID, a.assigned)
	a.Each(func(v graph.VertexID, p ID) { out[v] = p })
	return out
}

// Table returns the vertex table mapping external IDs to dense indices.
// The table is shared, not copied; it may gain vertices beyond this
// snapshot's range as streaming continues (Of guards the bound).
func (a *Assignment) Table() *intern.VertexTable { return a.verts }

// PartsClone returns a copy of the dense parts slice, indexed by Table()'s
// dense indices. Offline passes (refinement) mutate the copy and rewrap it
// with NewAssignmentFrom.
func (a *Assignment) PartsClone() []ID { return append([]ID(nil), a.parts...) }

// Clone returns a fully isolated deep copy of the assignment: placements,
// sizes and the vertex table share no state with the original, so the copy
// can be read from any goroutine while the original's table keeps growing.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{
		K:        a.K,
		Sizes:    append([]int(nil), a.Sizes...),
		parts:    append([]ID(nil), a.parts...),
		assigned: a.assigned,
	}
	if a.verts != nil {
		c.verts = a.verts.Clone()
	}
	return c
}

// ---------------------------------------------------------------------------
// Paged copy-on-write epochs: the lock-free read path
// ---------------------------------------------------------------------------

// PageBits sizes assignment pages at 2^PageBits = 1024 IDs (8 KiB), the
// granularity of copy-on-write between published epochs: a batch that
// places vertices into d pages costs d page copies at the next Publish,
// while the other V/1024 pages are shared by reference with the previous
// epoch. 1024 measured best on batch-256 ingest (placements cluster on a
// few-thousand-index span per batch, so finer pages over-copy less than
// 4096-ID pages while the page table stays small enough to re-copy per
// publish: 8 KB per million vertices).
const PageBits = 10

// PageSize is the number of assignments per page.
const PageSize = 1 << PageBits

// pageMask extracts the within-page offset from a dense index.
const pageMask = PageSize - 1

// page is one immutable block of assignments. Pages referenced by a
// published Epoch are never written again; the writer replaces dirty pages
// with fresh copies at the next Publish.
type page [PageSize]ID

// Epoch is an immutable, published view of an assignment: a page table over
// copy-on-write assignment pages plus a point-in-time view of the vertex
// table. Epochs are published by the single writer with an atomic store
// (Tracker.Publish) and every method is safe from any number of goroutines
// while streaming continues — reads are one atomic pointer load away from
// the partitioner at all times, with no locks and no per-vertex copying.
type Epoch struct {
	k        int
	seq      uint64
	numVerts int // dense indices covered; everything beyond is Unassigned
	assigned int
	sizes    []int   // per-partition vertex counts at publish (immutable)
	pages    []*page // immutable page table; pages shared across epochs
	verts    intern.View
}

// K returns the number of partitions.
func (e *Epoch) K() int { return e.k }

// Seq returns the publish sequence number, strictly increasing per tracker
// (the first published epoch is 1).
func (e *Epoch) Seq() uint64 { return e.seq }

// NumAssigned returns the number of assigned vertices at publish.
func (e *Epoch) NumAssigned() int { return e.assigned }

// Sizes returns the per-partition vertex counts at publish. The slice is
// shared and immutable; callers must not modify it.
func (e *Epoch) Sizes() []int { return e.sizes }

// Verts returns the epoch's vertex-table view.
func (e *Epoch) Verts() intern.View { return e.verts }

// OfIdx returns the partition of dense index i at publish time, or
// Unassigned.
func (e *Epoch) OfIdx(i uint32) ID {
	if int(i) >= e.numVerts {
		return Unassigned
	}
	return e.pages[i>>PageBits][i&pageMask]
}

// Of returns v's partition at publish time, or Unassigned: one concurrent
// hash probe plus two array indexes — the lock-free point-read path.
func (e *Epoch) Of(v graph.VertexID) ID {
	i, ok := e.verts.Lookup(int64(v))
	if !ok {
		return Unassigned
	}
	return e.OfIdx(i)
}

// Each calls f for every assigned vertex in dense-index (first-seen) order.
// Each allocates nothing: it walks the shared pages directly.
func (e *Epoch) Each(f func(v graph.VertexID, p ID)) {
	for pi, pg := range e.pages {
		base := pi << PageBits
		lim := e.numVerts - base
		if lim > PageSize {
			lim = PageSize
		}
		for j := 0; j < lim; j++ {
			if p := pg[j]; p != Unassigned {
				f(graph.VertexID(e.verts.ID(uint32(base+j))), p)
			}
		}
	}
}

// Materialise flattens the epoch into an Assignment for offline consumers
// (workload execution, metrics). The result shares the live vertex table —
// safe for reads, since lookups tolerate a concurrent writer and Of bounds
// dense indices to the materialised parts — and costs one O(V) copy, paid
// by the reader with no lock held.
func (e *Epoch) Materialise() *Assignment {
	parts := make([]ID, e.numVerts)
	for pi := range e.pages {
		base := pi << PageBits
		if base >= e.numVerts {
			break
		}
		copy(parts[base:], e.pages[pi][:])
	}
	return &Assignment{
		K:        e.k,
		Sizes:    append([]int(nil), e.sizes...),
		verts:    e.verts.Table(),
		parts:    parts,
		assigned: e.assigned,
	}
}

// Tracker maintains the shared streaming state: assignments, partition
// sizes, and the adjacency observed so far (needed by neighbourhood
// heuristics: "heuristics which consider the local neighbourhood of each
// new element at the time it arrives", §1.2). All per-vertex state is
// slice-backed, indexed by the dense index of a shared vertex table.
//
// The flat parts slice stays the authoritative representation on the
// single-threaded placement path (neighbour scans index it directly); the
// paged epoch mirror is rebuilt lazily from a dirty-page bitmap when the
// writer calls Publish, so the per-assignment cost of the read path is one
// bit set.
type Tracker struct {
	k        int
	capacity float64 // C: per-partition vertex capacity
	verts    *intern.VertexTable
	parts    []ID       // per dense index
	nbrs     [][]uint32 // observed adjacency per dense index
	sizes    []int
	assigned int
	observed int   // edges observed
	counts   []int // scratch for NeighborCountsIdx (len k)

	// cnt holds N(Si, v) for every vertex as a flat K-stride table:
	// cnt[v·k+p] is the number of observed occurrences u ∈ nbrs[v] with
	// parts[u] == p. It is maintained incrementally — an observation whose
	// far endpoint is already assigned credits the near row immediately,
	// and AssignIdx credits all of a vertex's pending occurrences once —
	// so neighbourhood scores are O(K) reads instead of O(deg) walks.
	// Total maintenance cost is one increment per (occurrence, assigned
	// endpoint) pair, i.e. O(observations), where the walks it replaces
	// were O(deg) per eviction and quadratic on hub-heavy streams.
	cnt []int32

	// Copy-on-write publish state: pages mirrors parts page-by-page as of
	// the last Publish; pageDirty marks pages whose flat contents have
	// changed since. Published epochs hold references into former pages
	// slices, never the mutable tail.
	pages     []*page
	pageDirty []bool
	pubSeq    uint64
	published atomic.Pointer[Epoch]

	// onAssign, when non-nil, observes every streaming placement (see
	// SetAssignHook). Invoked synchronously from AssignIdx.
	onAssign func(v int64, p ID)
}

// NewTracker creates a tracker for k partitions with per-partition vertex
// capacity C. Capacity is typically ν·n/k for an expected vertex count n
// (see CapacityFor); it must be positive.
func NewTracker(k int, capacity float64) *Tracker {
	return NewTrackerWith(k, capacity, intern.NewVertexTable(0))
}

// NewTrackerWith creates a tracker that interns vertices through a shared
// table, so components cooperating on one stream (e.g. Loom's tracker and
// sliding window) agree on dense indices.
func NewTrackerWith(k int, capacity float64, verts *intern.VertexTable) *Tracker {
	if k < 1 {
		panic(fmt.Sprintf("partition: k must be >= 1, got %d", k))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("partition: capacity must be positive, got %v", capacity))
	}
	return &Tracker{
		k:        k,
		capacity: capacity,
		verts:    verts,
		sizes:    make([]int, k),
		counts:   make([]int, k),
	}
}

// CapacityFor returns the standard capacity constraint C = ν·n/k for an
// expected total vertex count n.
func CapacityFor(expectedVertices, k int, slack float64) float64 {
	c := slack * float64(expectedVertices) / float64(k)
	if c < 1 {
		c = 1
	}
	return c
}

// K returns the number of partitions.
func (t *Tracker) K() int { return t.k }

// Capacity returns the per-partition capacity C.
func (t *Tracker) Capacity() float64 { return t.capacity }

// Verts returns the tracker's vertex table.
func (t *Tracker) Verts() *intern.VertexTable { return t.verts }

// Reserve pre-sizes the per-vertex slices for n vertices, so a stream
// whose vertex count is known (or derivable from the capacity constraint)
// pays no incremental growth in the per-edge path.
func (t *Tracker) Reserve(n int) {
	if n <= cap(t.parts) {
		return
	}
	parts := make([]ID, len(t.parts), n)
	copy(parts, t.parts)
	t.parts = parts
	nbrs := make([][]uint32, len(t.nbrs), n)
	copy(nbrs, t.nbrs)
	t.nbrs = nbrs
	if n*t.k > cap(t.cnt) {
		cnt := make([]int32, len(t.cnt), n*t.k)
		copy(cnt, t.cnt)
		t.cnt = cnt
	}
}

// ensure grows the per-vertex slices to cover dense index i (the shared
// table may have been grown by another component).
func (t *Tracker) ensure(i uint32) {
	for len(t.parts) <= int(i) {
		t.parts = append(t.parts, Unassigned)
		t.nbrs = append(t.nbrs, nil)
	}
	for want := len(t.parts) * t.k; len(t.cnt) < want; {
		t.cnt = append(t.cnt, 0)
	}
}

// Intern returns v's dense index, growing the tracker's state as needed.
func (t *Tracker) Intern(v graph.VertexID) uint32 {
	i := t.verts.Intern(int64(v))
	t.ensure(i)
	return i
}

// ObserveIdx records the adjacency of an edge between dense indices ui and
// vi without assigning anything. Callers observe every edge exactly once,
// before placement.
//
// Occurrence lists are kept only while an endpoint is unassigned: they
// exist to carry the pending neighbour-partition credits that AssignIdx
// folds into the count table, and an assigned endpoint's credits flow
// into cnt immediately instead. Tracker adjacency memory is therefore
// proportional to the unassigned frontier (roughly the sliding window's
// reach), not to the stream length.
func (t *Tracker) ObserveIdx(ui, vi uint32) {
	t.ensure(ui)
	t.ensure(vi)
	if t.parts[ui] == Unassigned {
		t.nbrs[ui] = addNbr(t.nbrs[ui], vi)
	}
	if t.parts[vi] == Unassigned {
		t.nbrs[vi] = addNbr(t.nbrs[vi], ui)
	}
	t.creditObserve(ui, vi)
	t.observed++
}

// creditObserve folds one observed occurrence into the incremental
// neighbour-partition counts: an endpoint that is already assigned
// credits the far endpoint's row immediately; an unassigned endpoint's
// credit is deferred to its AssignIdx, which walks the occurrences
// observed up to that point. Each occurrence is credited exactly once
// per endpoint either way.
func (t *Tracker) creditObserve(ui, vi uint32) {
	if p := t.parts[ui]; p != Unassigned {
		t.cnt[int(vi)*t.k+int(p)]++
	}
	if p := t.parts[vi]; p != Unassigned {
		t.cnt[int(ui)*t.k+int(p)]++
	}
}

// addNbr appends one neighbour, seeding a fresh list with capacity for a
// typical vertex: the default doubling from nil (1 → 2 → 4 → …) costs an
// allocation per step on the per-edge hot path, and most stream vertices
// end up with a handful of neighbours anyway.
func addNbr(l []uint32, v uint32) []uint32 {
	if l == nil {
		l = make([]uint32, 0, 8)
	}
	return append(l, v)
}

// ObserveStream interns a stream edge's endpoints, records its adjacency,
// and returns the dense endpoint indices — the single per-edge entry point
// for streaming partitioners.
func (t *Tracker) ObserveStream(e graph.StreamEdge) (ui, vi uint32) {
	ui = t.Intern(e.U)
	vi = t.Intern(e.V)
	if t.parts[ui] == Unassigned {
		t.nbrs[ui] = addNbr(t.nbrs[ui], vi)
	}
	if t.parts[vi] == Unassigned {
		t.nbrs[vi] = addNbr(t.nbrs[vi], ui)
	}
	t.creditObserve(ui, vi)
	t.observed++
	return ui, vi
}

// Observe records the adjacency of a stream edge without assigning
// anything.
func (t *Tracker) Observe(e graph.StreamEdge) { t.ObserveStream(e) }

// ObservedEdges returns the number of edges observed so far.
func (t *Tracker) ObservedEdges() int { return t.observed }

// ObservedDegree returns the number of occurrences observed while v was
// unassigned (an assigned vertex's occurrence list is folded into the
// neighbour-partition counts and freed; see ObserveIdx).
func (t *Tracker) ObservedDegree(v graph.VertexID) int {
	i, ok := t.verts.Lookup(int64(v))
	if !ok || int(i) >= len(t.nbrs) {
		return 0
	}
	return len(t.nbrs[i])
}

// NeighborsIdx returns the occurrences observed while dense index i was
// unassigned (nil once i is assigned; see ObserveIdx). The slice is owned
// by the tracker.
func (t *Tracker) NeighborsIdx(i uint32) []uint32 {
	if int(i) >= len(t.nbrs) {
		return nil
	}
	return t.nbrs[i]
}

// Neighbors returns v's observed neighbours as external IDs. The slice is
// freshly allocated (cold-path convenience; hot paths use NeighborsIdx).
func (t *Tracker) Neighbors(v graph.VertexID) []graph.VertexID {
	i, ok := t.verts.Lookup(int64(v))
	if !ok {
		return nil
	}
	ns := t.NeighborsIdx(i)
	out := make([]graph.VertexID, len(ns))
	for j, u := range ns {
		out[j] = graph.VertexID(t.verts.ID(u))
	}
	return out
}

// PartOfIdx returns the partition of dense index i, or Unassigned.
func (t *Tracker) PartOfIdx(i uint32) ID {
	if int(i) >= len(t.parts) {
		return Unassigned
	}
	return t.parts[i]
}

// PartOf returns v's partition, or Unassigned.
func (t *Tracker) PartOf(v graph.VertexID) ID {
	i, ok := t.verts.Lookup(int64(v))
	if !ok {
		return Unassigned
	}
	return t.PartOfIdx(i)
}

// AssignIdx places dense index i in partition p. Re-assignment is a
// programming error in one-pass streaming ("streaming partitioners do not
// perform any refinement", §1.2) and panics.
func (t *Tracker) AssignIdx(i uint32, p ID) {
	if p < 0 || int(p) >= t.k {
		panic(fmt.Sprintf("partition: bad partition id %d (k=%d)", p, t.k))
	}
	t.ensure(i)
	if old := t.parts[i]; old != Unassigned {
		panic(fmt.Sprintf("partition: vertex %d reassigned %d → %d", t.verts.ID(i), old, p))
	}
	t.parts[i] = p
	// Credit every occurrence observed while i was unassigned: each
	// neighbour's row gains one count for partition p per occurrence,
	// completing the invariant creditObserve maintains going forward.
	// The list is then dead — no path reads an assigned vertex's
	// occurrences again — so free it.
	for _, u := range t.nbrs[i] {
		t.cnt[int(u)*t.k+int(p)]++
	}
	t.nbrs[i] = nil
	t.sizes[p]++
	t.assigned++
	t.markDirty(i)
	if t.onAssign != nil {
		t.onAssign(t.verts.ID(i), p)
	}
}

// markDirty flags the page holding dense index i as changed since the last
// Publish. One shift and one store on the placement hot path.
func (t *Tracker) markDirty(i uint32) {
	pi := int(i >> PageBits)
	for len(t.pageDirty) <= pi {
		t.pageDirty = append(t.pageDirty, false)
		t.pages = append(t.pages, nil)
	}
	t.pageDirty[pi] = true
}

// SetAssignHook registers fn to observe every streaming placement: it is
// called synchronously from AssignIdx with the vertex's external ID and its
// partition, after sizes and counters are updated. One hook only (the
// public layer fans out to subscribers); nil removes it. Because vertices
// are never reassigned in one-pass streaming, replaying the hook's calls
// reconstructs the assignment exactly.
func (t *Tracker) SetAssignHook(fn func(v int64, p ID)) { t.onAssign = fn }

// Assign places v in partition p (see AssignIdx).
func (t *Tracker) Assign(v graph.VertexID, p ID) { t.AssignIdx(t.Intern(v), p) }

// Size returns |V(Si)| for partition p.
func (t *Tracker) Size(p ID) int { return t.sizes[p] }

// Sizes returns a copy of the per-partition vertex counts.
func (t *Tracker) Sizes() []int { return append([]int(nil), t.sizes...) }

// NumAssigned returns the number of assigned vertices.
func (t *Tracker) NumAssigned() int { return t.assigned }

// MinSize returns the size of the smallest partition (Smin in §4).
func (t *Tracker) MinSize() int {
	min := t.sizes[0]
	for _, s := range t.sizes[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// LeastLoaded returns the partition with the fewest vertices (lowest index
// on ties) — the universal fallback when neighbourhood scores are all zero.
func (t *Tracker) LeastLoaded() ID {
	best := ID(0)
	for p := 1; p < t.k; p++ {
		if t.sizes[p] < t.sizes[best] {
			best = ID(p)
		}
	}
	return best
}

// Residual returns LDG's weighting term 1 − |V(Si)|/C for partition p.
func (t *Tracker) Residual(p ID) float64 {
	return 1 - float64(t.sizes[p])/t.capacity
}

// NeighborCount returns N(Si, v): the number of v's observed neighbours
// already assigned to partition p.
func (t *Tracker) NeighborCount(v graph.VertexID, p ID) int {
	i, ok := t.verts.Lookup(int64(v))
	if !ok || p < 0 || int(p) >= t.k {
		return 0
	}
	if row := t.cntRow(i); row != nil {
		return int(row[p])
	}
	return 0
}

// cntRow returns dense index i's neighbour-partition count row, or nil
// when i is beyond the tracked extent.
func (t *Tracker) cntRow(i uint32) []int32 {
	off := int(i) * t.k
	if off >= len(t.cnt) {
		return nil
	}
	return t.cnt[off : off+t.k]
}

// AddNeighborCountsIdx adds N(Si, i) for every partition Si into counts
// (len K), reading the incrementally maintained row — O(K), independent
// of i's observed degree.
func (t *Tracker) AddNeighborCountsIdx(i uint32, counts []int32) {
	for p, c := range t.cntRow(i) {
		counts[p] += c
	}
}

// NeighborCountsIdx returns N(Si, ·) for every partition of dense index
// i, read from the incrementally maintained count table — O(K) regardless
// of degree. The returned slice is the tracker's reusable scratch buffer:
// it is valid only until the next call that computes neighbour counts on
// this tracker (NeighborCountsIdx, NeighborCounts, AssignLDGIdx,
// AssignLDG, or any placer built on them).
func (t *Tracker) NeighborCountsIdx(i uint32) []int {
	counts := t.counts
	for p := range counts {
		counts[p] = 0
	}
	for p, c := range t.cntRow(i) {
		counts[p] = int(c)
	}
	return counts
}

// NeighborCounts returns N(Si, v) for every partition in one pass. The
// slice is freshly allocated (hot paths use NeighborCountsIdx).
func (t *Tracker) NeighborCounts(v graph.VertexID) []int {
	counts := make([]int, t.k)
	if i, ok := t.verts.Lookup(int64(v)); ok {
		copy(counts, t.NeighborCountsIdx(i))
	}
	return counts
}

// Assignment snapshots the current assignment. The parts slice is copied;
// the vertex table is shared (it only grows, and Of bounds-checks).
func (t *Tracker) Assignment() *Assignment {
	return &Assignment{
		K:        t.k,
		Sizes:    append([]int(nil), t.sizes...),
		verts:    t.verts,
		parts:    append([]ID(nil), t.parts...),
		assigned: t.assigned,
	}
}

// Snapshot returns a fully isolated copy of the current assignment: unlike
// Assignment, the vertex table is deep-copied too, so the snapshot can be
// read from any goroutine while streaming keeps growing the live table.
// This is the O(V) deep-copy path; concurrent readers that only need a
// consistent view use the copy-on-write epochs (Publish/Latest) instead.
func (t *Tracker) Snapshot() *Assignment {
	return &Assignment{
		K:        t.k,
		Sizes:    append([]int(nil), t.sizes...),
		verts:    t.verts.Clone(),
		parts:    append([]ID(nil), t.parts...),
		assigned: t.assigned,
	}
}

// Publish captures the current assignment as an immutable Epoch and makes
// it the tracker's latest published view. Only pages dirtied since the last
// Publish are copied out of the flat parts slice — clean pages are shared
// by reference with earlier epochs — so a batch that placed vertices into d
// pages costs d page copies plus one page-table copy, independent of V.
// When nothing changed, the previous epoch is returned unchanged (held
// snapshots stay valid either way: published pages are never mutated).
//
// Publish runs on the writer side (the caller's ingest lock is the natural
// guard); Latest and every Epoch method are the concurrent read side.
func (t *Tracker) Publish() *Epoch {
	n := len(t.parts)
	npages := (n + PageSize - 1) >> PageBits
	for len(t.pages) < npages {
		t.pages = append(t.pages, nil)
		t.pageDirty = append(t.pageDirty, false)
	}
	changed := false
	for pi := 0; pi < npages; pi++ {
		if t.pages[pi] != nil && !t.pageDirty[pi] {
			continue
		}
		pg := new(page)
		base := pi << PageBits
		m := copy(pg[:], t.parts[base:n])
		for j := m; j < PageSize; j++ {
			pg[j] = Unassigned
		}
		t.pages[pi] = pg
		t.pageDirty[pi] = false
		changed = true
	}
	if !changed {
		// Nothing placed since the last epoch. Vertices interned or merely
		// observed since then are Unassigned, which the previous epoch
		// already reports via its index bound — reuse it.
		if prev := t.published.Load(); prev != nil {
			return prev
		}
	}
	t.pubSeq++
	e := &Epoch{
		k:        t.k,
		seq:      t.pubSeq,
		numVerts: n,
		assigned: t.assigned,
		sizes:    append([]int(nil), t.sizes...),
		pages:    append([]*page(nil), t.pages[:npages]...),
		verts:    t.verts.View(),
	}
	t.published.Store(e)
	return e
}

// Latest returns the most recently published epoch, or nil before the
// first Publish. Safe from any goroutine: one atomic load.
func (t *Tracker) Latest() *Epoch { return t.published.Load() }

// AssignLDGIdx places the vertex at dense index i with the Linear
// Deterministic Greedy rule (§4, quoting [30]): argmax over Si of
// N(Si, v)·(1 − |V(Si)|/C), breaking ties toward the emptier partition and
// falling back to the least-loaded partition when every score is zero (no
// assigned neighbours, or all candidates full).
func (t *Tracker) AssignLDGIdx(i uint32) ID {
	counts := t.NeighborCountsIdx(i)
	best, bestScore := Unassigned, 0.0
	for p := 0; p < t.k; p++ {
		if counts[p] == 0 {
			continue // score would be 0, which never wins (see guard below)
		}
		if float64(t.sizes[p])+1 > t.capacity {
			continue // assignment would exceed capacity
		}
		score := float64(counts[p]) * t.Residual(ID(p))
		if score > bestScore || (score == bestScore && best != Unassigned && t.sizes[p] < t.sizes[best]) {
			if score > 0 {
				best, bestScore = ID(p), score
			}
		}
	}
	if best == Unassigned {
		best = t.LeastLoaded()
	}
	t.AssignIdx(i, best)
	return best
}

// AssignLDG places vertex v with the LDG rule (see AssignLDGIdx). Exposed
// on the tracker because Loom reuses it verbatim for non-motif edges.
func (t *Tracker) AssignLDG(v graph.VertexID) ID {
	return t.AssignLDGIdx(t.Intern(v))
}

// EdgeCut returns the number of edges of g whose endpoints are assigned to
// different partitions (min. edge-cut is "the standard scale free measure
// of partition quality", §1.3). Unassigned vertices are treated as living
// together in the window partition Ptemp (§3): an edge between two
// unassigned vertices is not cut, an edge from an assigned vertex into
// Ptemp is.
func EdgeCut(g *graph.Graph, a *Assignment) int {
	cut := 0
	for _, e := range g.Edges() {
		if a.Of(e.U) != a.Of(e.V) {
			cut++
		}
	}
	return cut
}

// Imbalance returns max_i |Vi| / (n/k) − 1, the relative overload of the
// fullest partition versus a perfectly balanced one, where n is the number
// of assigned vertices. This is the measure behind §5.2's "LDG varying
// between 1%−3%, Loom and Fennel between 7% and their maximum imbalance of
// 10%".
func Imbalance(a *Assignment) float64 { return ImbalanceOf(a.K, a.Sizes) }

// ImbalanceOf is Imbalance over a bare (k, sizes) pair — the form epochs
// and snapshots carry without materialising an Assignment.
func ImbalanceOf(k int, sizes []int) float64 {
	n := 0
	max := 0
	for _, s := range sizes {
		n += s
		if s > max {
			max = s
		}
	}
	if n == 0 {
		return 0
	}
	ideal := float64(n) / float64(k)
	return float64(max)/ideal - 1
}

// CommunicationVolume returns Σ_v (#distinct partitions holding neighbours
// of v, other than v's own) — the min. communication volume objective that
// Sheep optimises (§1.2), reported for completeness.
func CommunicationVolume(g *graph.Graph, a *Assignment) int {
	vol := 0
	var ns []graph.VertexID
	for _, v := range g.Vertices() {
		seen := make(map[ID]bool)
		own := a.Of(v)
		ns = g.Neighbors(v, ns[:0])
		for _, u := range ns {
			if p := a.Of(u); p != own && !seen[p] {
				seen[p] = true
				vol++
			}
		}
	}
	return vol
}

// fnvHash hashes a vertex ID (used by the Hash baseline). It is FNV-1a over
// the ID's little-endian bytes, inlined so the hot path does not allocate a
// hash.Hash — bit-identical to hash/fnv's New64a.
func fnvHash(v graph.VertexID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	x := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime64
		x >>= 8
	}
	return h
}
