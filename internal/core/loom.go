// Package core implements the Loom partitioner (§4 of the paper): a
// single-pass streaming graph partitioner that places motif-matching
// sub-graphs wholly within individual partitions to reduce inter-partition
// traversals for a given query workload.
//
// The pipeline per stream edge e:
//
//  1. e is checked against the single-edge motifs at the root of the
//     TPSTry++. A non-matching edge "will never form part of any sub-graph
//     that matches a motif" (§3) and is assigned immediately with the LDG
//     heuristic, bypassing the window.
//  2. A matching edge enters the sliding window Ptemp, where Alg. 2
//     incrementally maintains the matchList of motif-matching sub-graphs.
//  3. When the window exceeds its capacity t, the oldest edge e is evicted
//     and assigned together with the window sub-graphs that match motifs
//     containing it, using the equal opportunism heuristic: support-sorted
//     matches Me, per-partition bids (Eq. 1), and the rationing function l
//     (Eq. 2) that throttles large partitions (Eq. 3).
//
// The per-edge path is interned: both endpoints and labels are resolved to
// dense indices/codes once at ingest (internal/intern) and every downstream
// step — adjacency bookkeeping, motif matching, equal-opportunism bids,
// LDG scoring — runs on slice-indexed state shared between the tracker and
// the window, with no string hashing and near-zero allocation.
//
// Equal opportunism's published Eq. 2 reads |V(Si)|/Smin·α, which is
// inconsistent with both the prose ("inversely correlated with Si's size")
// and the worked example (l = (1/1.33)·(2/3) = 1/2); this implementation
// follows the example: l(Si) = α·Smin/|V(Si)|, clamped to 1 for the
// smallest partition and 0 beyond the imbalance bound b.
package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"loom/internal/graph"
	"loom/internal/intern"
	"loom/internal/partition"
	"loom/internal/tpstry"
	"loom/internal/window"
)

// Assignment mode names for Config.Mode.
const (
	// ModeEqualOpportunism is the paper's heuristic (default).
	ModeEqualOpportunism = "equal-opportunism"
	// ModeNaiveGreedy is the strawman of §4: the whole match cluster goes
	// to the partition sharing the most incident edges, with no balance
	// or support weighting. Provided for the ablation benchmarks.
	ModeNaiveGreedy = "naive-greedy"
)

// Config parameterises a Loom partitioner. Zero fields take the paper's
// defaults via New.
type Config struct {
	// K is the number of partitions (required, >= 1).
	K int
	// Capacity is the per-partition vertex capacity C; derive it with
	// partition.CapacityFor(expectedVertices, K, slack). Required.
	Capacity float64
	// WindowSize is the sliding window capacity t in edges. Default
	// 10_000 (§5.1: "a window size of 10k edges").
	WindowSize int
	// SupportThreshold is the motif support threshold T in [0, 1].
	// Default 0.4 (§5.1: "a motif support threshold of 40%").
	SupportThreshold float64
	// Alpha is the rationing aggression α in (0, 1]. Default 2/3 (§4).
	Alpha float64
	// MaxImbalance is the bound b: a partition more than b times the size
	// of the smallest receives no motif clusters. Default 1.1 (§4,
	// "emulating Fennel").
	MaxImbalance float64
	// Mode selects the assignment heuristic (default equal opportunism).
	Mode string
	// DisableSupportWeight drops the supp(mk) term from bids (ablation).
	DisableSupportWeight bool
	// DisableRation makes l(Si) ≡ 1 (ablation: greedy bids, no ration).
	DisableRation bool
	// MaxMatchesPerVertex caps matchList fan-out per vertex; 0 uses the
	// window package default.
	MaxMatchesPerVertex int
	// Workers is the parallelism of batch ingest: ProcessBatchFunc runs
	// its prepare pre-pass (vertex/label resolution, motif-gate probes)
	// across this many goroutines, and eviction rounds with large match
	// lists scatter their bid counts across the same pool. Placements are
	// bit-identical for every value. 0 defaults to GOMAXPROCS; 1 disables
	// the pipeline entirely (the exact single-threaded path). Per-edge
	// ProcessEdge is unaffected.
	Workers int
	// Prior, when non-nil, enables the restreaming mode the paper lists
	// as future work (§6, after Nishimura & Ugander [22]): when a
	// placement decision has no neighbourhood information (a cold-start
	// vertex or a zero-bid cluster), the vertex's partition from a
	// previous pass is used instead of the least-loaded fallback. Later
	// passes therefore keep the locality discovered earlier while still
	// improving it with full-stream knowledge.
	Prior *partition.Assignment
}

func (c Config) withDefaults() Config {
	if c.WindowSize == 0 {
		c.WindowSize = 10_000
	}
	if c.SupportThreshold == 0 {
		c.SupportThreshold = 0.40
	}
	if c.Alpha == 0 {
		c.Alpha = 2.0 / 3.0
	}
	if c.MaxImbalance == 0 {
		c.MaxImbalance = partition.DefaultImbalance
	}
	if c.Mode == "" {
		c.Mode = ModeEqualOpportunism
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats counts the paths taken while partitioning; benchmarks and examples
// report them.
type Stats struct {
	EdgesProcessed    int // stream edges consumed
	SelfLoops         int // dropped
	DuplicateEdges    int // dropped (already in window)
	ImmediateEdges    int // failed the single-edge motif gate → LDG
	WindowedEdges     int // entered Ptemp
	Evictions         int // eviction rounds (equal opportunism invocations)
	MatchesAssigned   int // motif matches placed with their cluster
	ZeroBidRounds     int // rounds decided by the least-loaded fallback
	LoneEdgeRounds    int // evictions of single-edge-only clusters (LDG path)
	DeferredEndpoints int // endpoints left to Ptemp instead of immediate LDG
	PriorPlacements   int // decisions taken from the restreaming prior
}

// Loom is the workload-aware streaming partitioner. It implements
// partition.Streamer. Not safe for concurrent use (the paper's §6 notes
// Loom is single-threaded).
type Loom struct {
	cfg   Config
	trie  *tpstry.Trie
	tr    *partition.Tracker
	win   *window.Matcher
	sp    *intern.Space       // shared by tracker and window (and the caller's recorded graph)
	verts *intern.VertexTable // sp's vertex table
	stats Stats

	// Eviction-path scratch, reused across rounds so the steady-state
	// eviction performs no allocation.
	evictEdges []window.IEdge  // unique cluster edges per eviction
	meBuf      []*window.Match // Me, the matches containing the evicted edge
	bidCounts  []int32         // per-match K-vectors of partition counts (flat, K·maxCnt)
	supports   []float64       // supp(mk) per support-sorted match prefix
	rations    []float64       // l(Si) per partition
	residuals  []float64       // 1 − |V(Si)|/C per partition
	cnts       []int           // rationed prefix length per partition
	totals     []float64       // running rationed bid total per partition
	ccounts    []int           // clusterCounts accumulator (len K)
	seenStamp  []uint32        // per dense vertex: epoch of last visit
	epoch      uint32          // current clusterCounts epoch

	// Batch-pipeline state (see pipeline.go): the pooled per-batch
	// prepare scratch, the worker gang alive for the duration of one
	// ProcessBatchFunc call (nil otherwise — EvictOne checks it before
	// parallelising the bid scatter), and the match-list length above
	// which an eviction round scatters bids in parallel.
	prep       prepScratch
	gang       *gang
	scatterMin int

	// onEvict, when non-nil, observes every edge leaving the sliding
	// window (see SetEvictHook). Invoked synchronously, with external IDs.
	onEvict func(u, v int64)
}

// New builds a Loom over a TPSTry++ that already encodes the workload Q
// (tpstry.Trie.AddQuery). The trie may continue to be updated between
// edges as the workload evolves.
func New(cfg Config, trie *tpstry.Trie) (*Loom, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", cfg.K)
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("core: Capacity must be positive, got %v", cfg.Capacity)
	}
	if cfg.WindowSize < 0 {
		return nil, fmt.Errorf("core: WindowSize must be >= 0, got %d", cfg.WindowSize)
	}
	if cfg.SupportThreshold < 0 || cfg.SupportThreshold > 1 {
		return nil, fmt.Errorf("core: SupportThreshold must be in [0,1], got %v", cfg.SupportThreshold)
	}
	if cfg.Mode != ModeEqualOpportunism && cfg.Mode != ModeNaiveGreedy {
		return nil, fmt.Errorf("core: unknown mode %q", cfg.Mode)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("core: Workers must be >= 1, got %d", cfg.Workers)
	}
	// The capacity constraint C = ν·n/k fixes the expected vertex count
	// n = C·k/ν: pre-size every per-vertex structure for it (clamped so a
	// wild capacity cannot force an absurd allocation), taking all
	// incremental slice growth off the per-edge path.
	expected := int(cfg.Capacity*float64(cfg.K)/cfg.MaxImbalance) + 1
	if expected < 1024 {
		expected = 1024
	}
	if expected > 1<<21 {
		expected = 1 << 21
	}
	sp := intern.NewSpace(expected)
	w := window.NewMatcherWith(trie, cfg.SupportThreshold, cfg.WindowSize, sp)
	if cfg.MaxMatchesPerVertex > 0 {
		w.SetMaxMatchesPerVertex(cfg.MaxMatchesPerVertex)
	}
	w.Reserve(expected)
	tr := partition.NewTrackerWith(cfg.K, cfg.Capacity, sp.Verts())
	tr.Reserve(expected)
	return &Loom{
		cfg:        cfg,
		trie:       trie,
		tr:         tr,
		win:        w,
		sp:         sp,
		verts:      sp.Verts(),
		seenStamp:  make([]uint32, 0, expected),
		scatterMin: defaultScatterMin,
	}, nil
}

// Name implements partition.Streamer.
func (l *Loom) Name() string { return "loom" }

// Config returns the effective configuration (defaults resolved).
func (l *Loom) Config() Config { return l.cfg }

// Stats returns processing counters.
func (l *Loom) Stats() Stats { return l.stats }

// Tracker implements partition.Streamer (tests also pre-seed assignments
// through it).
func (l *Loom) Tracker() *partition.Tracker { return l.tr }

// Window exposes the sliding window (diagnostics).
func (l *Loom) Window() *window.Matcher { return l.win }

// Space returns the vertex space the core, its tracker and its window
// share. A caller that records the stream into a graph builds the graph
// on it (graph.NewIn) and records each edge before handing it to the
// core, so the graph is the first to intern and label every vertex.
func (l *Loom) Space() *intern.Space { return l.sp }

// ProcessEdges implements partition.Streamer: it ingests a batch of stream
// edges in arrival order. Placements are bit-identical to calling
// ProcessEdge once per element (the window invariant — evict as soon as
// capacity is exceeded — is maintained per edge); the batch form exists so
// callers can amortise per-call overhead (the public API's ingest lock,
// interface dispatch, argument copying) over many edges.
func (l *Loom) ProcessEdges(batch []graph.StreamEdge) {
	for i := range batch {
		l.ProcessEdge(batch[i])
	}
}

// ProcessEdge implements partition.Streamer.
func (l *Loom) ProcessEdge(se graph.StreamEdge) {
	l.stats.EdgesProcessed++
	if se.U == se.V {
		l.stats.SelfLoops++
		return
	}
	// The interning boundary: both endpoints and labels are resolved to
	// dense indices/codes exactly once; everything below runs on them.
	// The batch pipeline performs the same resolution in its prepare
	// pre-pass and joins the identical placement path at processResolved,
	// which is what keeps parallel and per-edge ingest bit-identical.
	ui := l.tr.Intern(se.U)
	vi := l.tr.Intern(se.V)
	cu := l.labelCodeOf(ui, se.LU)
	cv := l.labelCodeOf(vi, se.LV)
	node, ok := l.win.SingleEdgeMotifCodes(cu, cv)
	l.processResolved(se, ui, vi, cu, cv, node, ok)
}

// processResolved is the placement core shared by per-edge and batch
// ingest: it consumes a fully-resolved edge (interned endpoints, label
// codes, single-edge motif verdict) and performs window insertion, eviction
// and assignment. Every ingest path funnels through it, so placements
// cannot diverge between them.
func (l *Loom) processResolved(se graph.StreamEdge, ui, vi uint32, cu, cv uint16, node *tpstry.Node, motif bool) {
	if !motif || l.cfg.WindowSize == 0 {
		// §3: e can never be part of a motif match — assign immediately
		// with LDG and "behave as if the edge was never added to the
		// window" (§4). A zero-size window degenerates Loom to LDG.
		l.tr.ObserveIdx(ui, vi)
		l.stats.ImmediateEdges++
		l.assignImmediate(ui, vi)
		return
	}
	if err := l.win.InsertInterned(se, ui, vi, cu, cv, node); err != nil {
		// Duplicate stream edge: the first copy is already buffered and
		// already observed — observing again would double v in u's
		// adjacency and bias every later neighbourhood score.
		l.stats.DuplicateEdges++
		return
	}
	l.tr.ObserveIdx(ui, vi)
	l.stats.WindowedEdges++
	for l.win.OverCapacity() {
		l.EvictOne()
	}
}

// labelCodeOf returns the label code of the vertex at dense index i,
// labelling it with lab if the space has not labelled it yet: the first
// label wins, and the label string is hashed only on the vertex's first
// sighting (vertex labels are immutable for the life of the stream).
func (l *Loom) labelCodeOf(i uint32, lab graph.Label) uint16 {
	if c, ok := l.sp.Code(i); ok {
		return c
	}
	c := l.sp.Labels().Intern(string(lab))
	l.sp.SetCode(i, c)
	return c
}

// assignImmediate places any unassigned endpoint with LDG — except
// endpoints that still have motif-matching edges buffered in the window:
// those are Ptemp residents whose placement belongs to the upcoming cluster
// assignment (equal opportunism), not to an incidental non-motif edge.
// Deferred endpoints are guaranteed a home because every window edge is
// eventually evicted or removed with its endpoints assigned.
func (l *Loom) assignImmediate(ui, vi uint32) {
	for _, i := range [2]uint32{ui, vi} {
		if l.tr.PartOfIdx(i) != partition.Unassigned {
			continue
		}
		if l.win.HasVertexIdx(i) {
			l.stats.DeferredEndpoints++
			continue
		}
		l.assignVertexLDG(i)
	}
}

// assignVertexLDG places one vertex (by dense index) with the LDG rule,
// consulting the restreaming prior (if any) before the least-loaded
// fallback.
func (l *Loom) assignVertexLDG(i uint32) {
	if p, ok := l.priorOf(i); ok {
		// Prior exists but the standard rule may still be better; only
		// prefer the prior when LDG itself would have no signal.
		counts := l.tr.NeighborCountsIdx(i)
		signal := false
		for q := 0; q < l.tr.K(); q++ {
			if counts[q] > 0 && float64(l.tr.Size(partition.ID(q)))+1 <= l.tr.Capacity() {
				signal = true
				break
			}
		}
		if counts[p] == 0 && !signal && float64(l.tr.Size(p))+1 <= l.tr.Capacity() {
			l.stats.PriorPlacements++
			l.tr.AssignIdx(i, p)
			return
		}
	}
	l.tr.AssignLDGIdx(i)
}

// priorOf returns the partition of the vertex at dense index i in the
// restreaming prior, if configured and valid for this K.
func (l *Loom) priorOf(i uint32) (partition.ID, bool) {
	if l.cfg.Prior == nil {
		return partition.Unassigned, false
	}
	p := l.cfg.Prior.Of(graph.VertexID(l.verts.ID(i)))
	if p == partition.Unassigned || int(p) >= l.tr.K() {
		return partition.Unassigned, false
	}
	return p, true
}

// SetEvictHook registers fn to observe every edge leaving the sliding
// window: it is called synchronously with the external endpoint IDs as the
// edge is removed (eviction rounds and end-of-stream Flush alike). Together
// with the tracker's assign hook this lets an observer mirror both the
// permanent assignment and Ptemp membership. One hook only; nil removes it.
func (l *Loom) SetEvictHook(fn func(u, v int64)) { l.onEvict = fn }

// removeWindowEdges drops the given edges from the window, reporting each
// to the evict hook first (while the edge's interned endpoints are still
// resolvable).
func (l *Loom) removeWindowEdges(edges []window.IEdge) {
	if l.onEvict != nil {
		for _, e := range edges {
			l.onEvict(l.verts.ID(e.U), l.verts.ID(e.V))
		}
	}
	l.win.RemoveIEdges(edges)
}

// Flush implements partition.Streamer: it drains the window, assigning
// every buffered edge. Call at end-of-stream before reading the final
// assignment (during live operation the window is Ptemp, an extra
// partition that queries may read, §3).
func (l *Loom) Flush() {
	for !l.win.Empty() {
		l.EvictOne()
	}
}

// EvictOne evicts the oldest window edge and assigns its motif-match
// cluster per §4. It reports whether an eviction happened.
func (l *Loom) EvictOne() bool {
	oldIE, ok := l.win.OldestIdx()
	if !ok {
		return false
	}
	l.stats.Evictions++

	me := l.win.MatchesContainingI(oldIE, l.meBuf[:0])
	l.meBuf = me
	if len(me) == 0 {
		// Unreachable in normal flow: the single-edge match exists while
		// the edge does. Guard anyway: place endpoints by LDG.
		l.assignImmediate(oldIE.U, oldIE.V)
		l.evictEdges = append(l.evictEdges[:0], oldIE)
		l.removeWindowEdges(l.evictEdges)
		return true
	}
	l.sortBySupport(me)

	var winner partition.ID
	var prefix []*window.Match
	switch {
	case l.cfg.Mode == ModeNaiveGreedy:
		winner = l.naiveWinner(me)
		prefix = me // the naive approach assigns the whole cluster
	case len(me) == 1 && me[0].NumEdges() == 1:
		// A lone single-edge match: there is no intra-cluster locality
		// for equal opportunism to preserve. Place each unassigned
		// endpoint with the per-vertex LDG rule — the same treatment a
		// non-motif edge gets in §3, only deferred to eviction time,
		// when more of the endpoint's neighbourhood has been observed
		// ("the longer an edge remains in the sliding window … the
		// better partitioning decisions we can make for it", §4).
		l.stats.LoneEdgeRounds++
		for _, v := range me[0].VertexIndices() {
			if l.tr.PartOfIdx(v) == partition.Unassigned {
				l.assignVertexLDG(v)
			}
		}
		l.stats.MatchesAssigned++
		l.removeWindowEdges(me[0].IEdges())
		return true
	default:
		winner, prefix = l.equalOpportunism(me)
	}

	// Assign every unassigned vertex of the winning prefix to the winner
	// and drop the placed edges from the window; matches not taken stay
	// only if none of their edges were assigned (window.RemoveIEdges
	// kills intersecting matches).
	edges := l.evictEdges[:0]
	for _, m := range prefix {
		edges = append(edges, m.IEdges()...)
	}
	slices.SortFunc(edges, window.CompareIEdges)
	edges = slices.Compact(edges)
	l.evictEdges = edges
	for _, e := range edges {
		if l.tr.PartOfIdx(e.U) == partition.Unassigned {
			l.tr.AssignIdx(e.U, winner)
		}
		if l.tr.PartOfIdx(e.V) == partition.Unassigned {
			l.tr.AssignIdx(e.V, winner)
		}
	}
	l.stats.MatchesAssigned += len(prefix)
	l.removeWindowEdges(edges)
	return true
}

// sortBySupport orders Me in descending motif support; ties break toward
// smaller matches (the §4 example assigns ⟨e1,m1⟩ and the 2-edge m3 before
// the 3-edge m6), then lexicographic edge sets for determinism. The
// comparator is a total order over distinct matches, so the (unstable)
// sort is deterministic; slices.SortFunc avoids sort.Slice's reflective,
// allocating swapper on this per-eviction path.
func (l *Loom) sortBySupport(me []*window.Match) {
	slices.SortFunc(me, func(a, b *window.Match) int {
		// Raw weights order identically to normalised supports (shared
		// positive divisor) and skip a division per comparison.
		sa, sb := a.Node.SupportWeight(), b.Node.SupportWeight()
		if sa != sb {
			return cmp.Compare(sb, sa) // descending support
		}
		if la, lb := a.NumEdges(), b.NumEdges(); la != lb {
			return cmp.Compare(la, lb)
		}
		// Full tie: fall back to the lexicographic external edge sets,
		// exactly as before the interned rebuild (Match.Edges derives
		// them lazily and caches per match, so only tied comparisons —
		// and only a match's first — pay the materialisation).
		return compareEdgeSets(a.Edges(), b.Edges())
	})
}

func compareEdgeSets(a, b []graph.Edge) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i].U != b[i].U {
				return cmp.Compare(a[i].U, b[i].U)
			}
			return cmp.Compare(a[i].V, b[i].V)
		}
	}
	return cmp.Compare(len(a), len(b))
}

// ration computes l(Si) (Eq. 2, corrected as the package comment
// explains): 1 for the smallest partition; 0 for a partition at its
// capacity C = b·n/k (the imbalance bound b "emulating Fennel", whose
// ν = 1.1 is relative to n/k); otherwise α·Smin/|V(Si)|, inversely
// correlated with Si's size relative to the smallest partition.
func (l *Loom) ration(p partition.ID, smin int) float64 {
	if l.cfg.DisableRation {
		return 1
	}
	size := l.tr.Size(p)
	if float64(size)+1 > l.tr.Capacity() {
		return 0 // at the maximum-imbalance bound: no motif clusters
	}
	if size == smin {
		return 1
	}
	base := smin
	if base < 1 {
		base = 1 // smooth the cold start: an empty smallest partition
	}
	return l.cfg.Alpha * float64(base) / float64(size)
}

// scatterBidCounts computes N(Si, Ek) for every partition Si in ONE pass
// over the match's vertices and their observed neighbourhoods, writing the
// K-vector into counts.
//
// N(Si, Ek) follows footnote 8 ("a generalisation of LDG's function N"):
// LDG's N counts an edge's incident edges inside Si, so the sub-graph
// generalisation counts both the match's member vertices already in Si and
// the observed incident edges from the match's vertices into Si. For a
// fresh single-edge match this reduces exactly to LDG's N(Si, e); the
// printed |V(Si) ∩ V(Ek)| alone discards the neighbourhood signal LDG uses.
// The neighbourhood term reads the tracker's
// incrementally maintained per-vertex count rows instead of walking
// adjacency, so one scatter is O(|V(Ek)|·K) regardless of vertex degree —
// on hub-heavy streams the walk it replaces was O(hub degree) per
// eviction, which turned 10⁸-edge ingests quadratic.
func (l *Loom) scatterBidCounts(m *window.Match, counts []int32) {
	for i := range counts {
		counts[i] = 0
	}
	for _, v := range m.VertexIndices() {
		if p := l.tr.PartOfIdx(v); p != partition.Unassigned {
			counts[p]++
		}
		l.tr.AddNeighborCountsIdx(v, counts)
	}
}

// ensureBidScratch sizes the per-partition scratch vectors.
func (l *Loom) ensureBidScratch(k int) {
	if cap(l.rations) < k {
		l.rations = make([]float64, k)
		l.residuals = make([]float64, k)
		l.totals = make([]float64, k)
		l.cnts = make([]int, k)
	}
	l.rations = l.rations[:k]
	l.residuals = l.residuals[:k]
	l.totals = l.totals[:k]
	l.cnts = l.cnts[:k]
}

// equalOpportunism runs Eq. 3: every partition totals its bids over the
// first ⌈l(Si)·|Me|⌉ support-sorted matches; the winner takes exactly that
// prefix. When every bid is zero (cold start or no overlap), the least
// loaded partition takes its full ration.
//
// The evaluation is single-pass: each match in the longest rationed prefix
// gets one K-vector of partition counts (scatterBidCounts), and all K
// rationed prefix totals are then accumulated incrementally from those
// vectors — Eq. 1 is never recomputed per partition. Per-partition bid
// totals are summed in the same order (match index ascending, then scaled
// by l(Si)) as the direct per-partition evaluation, so the floating-point
// results — and hence placements — are bit-identical to it.
func (l *Loom) equalOpportunism(me []*window.Match) (partition.ID, []*window.Match) {
	k := l.tr.K()
	smin := l.tr.MinSize()
	l.ensureBidScratch(k)
	maxCnt := 0
	for p := 0; p < k; p++ {
		pid := partition.ID(p)
		l.totals[p] = 0
		l.residuals[p] = l.tr.Residual(pid)
		ration := l.ration(pid, smin)
		l.rations[p] = ration
		if ration <= 0 {
			l.cnts[p] = 0 // at the imbalance bound: receives no clusters
			continue
		}
		cnt := int(math.Ceil(ration * float64(len(me))))
		if cnt > len(me) {
			cnt = len(me)
		}
		if cnt < 1 {
			cnt = 1
		}
		l.cnts[p] = cnt
		if cnt > maxCnt {
			maxCnt = cnt
		}
	}

	// One scatter per match in the longest prefix; supports cached once.
	need := maxCnt * k
	if cap(l.bidCounts) < need {
		l.bidCounts = make([]int32, need)
	}
	l.bidCounts = l.bidCounts[:need]
	if cap(l.supports) < maxCnt {
		l.supports = make([]float64, maxCnt)
	}
	l.supports = l.supports[:maxCnt]
	l.scatterAll(me, maxCnt, k)

	// Incremental prefix totals: match i contributes to every partition
	// whose rationed prefix extends past i.
	for i := 0; i < maxCnt; i++ {
		counts := l.bidCounts[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			if i >= l.cnts[p] {
				continue
			}
			n := counts[p]
			if n == 0 {
				continue
			}
			b := float64(n) * l.residuals[p]
			if !l.cfg.DisableSupportWeight {
				b *= l.supports[i]
			}
			l.totals[p] += b
		}
	}

	best := partition.Unassigned
	bestBid := 0.0
	bestCnt := 0
	for p := 0; p < k; p++ {
		if l.cnts[p] == 0 {
			continue
		}
		pid := partition.ID(p)
		total := l.totals[p] * l.rations[p] // Eq. 3: l(Si) scales the rationed bid total
		if total > bestBid ||
			(total == bestBid && best != partition.Unassigned && l.tr.Size(pid) < l.tr.Size(best)) {
			if total > 0 {
				best, bestBid, bestCnt = pid, total, l.cnts[p]
			}
		}
	}
	if best == partition.Unassigned {
		// No partition holds any of the cluster's vertices yet. Equal
		// opportunism "extends ideas present in LDG" (§4): fall back to
		// LDG's neighbourhood rule over the whole cluster — the cluster
		// vertices' observed neighbours (e.g. an already-placed venue or
		// agent reached by non-motif edges) pull it toward their
		// partition; with no assigned neighbours at all, take the least
		// loaded.
		l.stats.ZeroBidRounds++
		best = l.clusterLDG(me)
		ration := l.ration(best, smin)
		bestCnt = int(math.Ceil(ration * float64(len(me))))
		if bestCnt > len(me) {
			bestCnt = len(me)
		}
		if bestCnt < 1 {
			bestCnt = 1
		}
	}
	return best, me[:bestCnt]
}

// scatterAll fills the per-match bid-count K-vectors and support cache for
// the first maxCnt support-sorted matches. During a parallel batch (gang
// non-nil) with a match list past the scatter threshold, matches are
// claimed by worker goroutines off an atomic counter: each match's
// K-vector and support land in fixed, disjoint slots, and the rationed
// totals are then reduced serially by the caller in the same fixed order
// as ever — so the floating-point sums, and hence placements, stay
// bit-identical to the serial scatter. The workers only read tracker and
// trie state (partitions, adjacency, supports), which no one mutates
// mid-eviction.
func (l *Loom) scatterAll(me []*window.Match, maxCnt, k int) {
	if l.gang != nil && maxCnt >= l.scatterMin {
		var next atomic.Int64
		l.gang.run(func(int) {
			for {
				i := int(next.Add(1)) - 1
				if i >= maxCnt {
					return
				}
				l.scatterBidCounts(me[i], l.bidCounts[i*k:(i+1)*k])
				l.supports[i] = l.trie.SupportOf(me[i].Node)
			}
		})
		return
	}
	for i := 0; i < maxCnt; i++ {
		l.scatterBidCounts(me[i], l.bidCounts[i*k:(i+1)*k])
		l.supports[i] = l.trie.SupportOf(me[i].Node)
	}
}

// SetScatterMin overrides the match-list length above which eviction
// rounds scatter bid counts across the batch worker gang (tuning and
// tests; the default keeps small rounds on the serial path, where the
// gang dispatch would cost more than the scatter).
func (l *Loom) SetScatterMin(n int) {
	if n < 1 {
		n = 1
	}
	l.scatterMin = n
}

// clusterCounts sums observed-neighbour counts per partition over the
// distinct vertices of a cluster (the union of the matches' vertex sets).
// The result is the reusable ccounts scratch, valid until the next call.
// Vertex dedup across matches uses an epoch-stamp slice indexed by dense
// vertex index instead of a freshly allocated set.
func (l *Loom) clusterCounts(me []*window.Match) []int {
	if cap(l.ccounts) < l.tr.K() {
		l.ccounts = make([]int, l.tr.K())
	}
	counts := l.ccounts[:l.tr.K()]
	for p := range counts {
		counts[p] = 0
	}
	l.epoch++
	if l.epoch == 0 { // stamp wraparound: invalidate all stamps
		clear(l.seenStamp)
		l.epoch = 1
	}
	for _, m := range me {
		for _, v := range m.VertexIndices() {
			for int(v) >= len(l.seenStamp) {
				l.seenStamp = append(l.seenStamp, 0)
			}
			if l.seenStamp[v] == l.epoch {
				continue
			}
			l.seenStamp[v] = l.epoch
			for p, c := range l.tr.NeighborCountsIdx(v) {
				counts[p] += c
			}
		}
	}
	return counts
}

// clusterLDG scores every partition by the LDG rule applied to the union of
// the cluster's vertices: Σ_v N(Si, v) · (1 − |V(Si)|/C). Zero scores fall
// back to the least-loaded partition.
func (l *Loom) clusterLDG(me []*window.Match) partition.ID {
	counts := l.clusterCounts(me)
	best := partition.Unassigned
	bestScore := 0.0
	for p := 0; p < l.tr.K(); p++ {
		if counts[p] == 0 {
			continue // zero score never wins (the score > 0 guard below)
		}
		pid := partition.ID(p)
		if float64(l.tr.Size(pid))+1 > l.tr.Capacity() {
			continue
		}
		score := float64(counts[p]) * l.tr.Residual(pid)
		if score > bestScore ||
			(score == bestScore && best != partition.Unassigned && l.tr.Size(pid) < l.tr.Size(best)) {
			if score > 0 {
				best, bestScore = pid, score
			}
		}
	}
	if best == partition.Unassigned {
		best = l.priorMajority(me)
	}
	return best
}

// priorMajority returns the restreaming prior's majority partition over the
// cluster's vertices (capacity permitting), else the least-loaded
// partition.
func (l *Loom) priorMajority(me []*window.Match) partition.ID {
	if l.cfg.Prior != nil {
		votes := make([]int, l.tr.K())
		for _, m := range me {
			for _, v := range m.VertexIndices() {
				if p, ok := l.priorOf(v); ok {
					votes[p]++
				}
			}
		}
		best, bestVotes := partition.Unassigned, 0
		for p := 0; p < l.tr.K(); p++ {
			if votes[p] > bestVotes && float64(l.tr.Size(partition.ID(p)))+1 <= l.tr.Capacity() {
				best, bestVotes = partition.ID(p), votes[p]
			}
		}
		if best != partition.Unassigned {
			l.stats.PriorPlacements++
			return best
		}
	}
	return l.tr.LeastLoaded()
}

// naiveWinner implements §4's strawman: the whole cluster goes to the
// partition with the most incident edges (observed neighbours inside the
// partition), ignoring balance and support.
func (l *Loom) naiveWinner(me []*window.Match) partition.ID {
	counts := l.clusterCounts(me)
	best := partition.ID(0)
	for p := 1; p < l.tr.K(); p++ {
		if counts[p] > counts[best] {
			best = partition.ID(p)
		}
	}
	if counts[best] == 0 {
		return l.tr.LeastLoaded()
	}
	return best
}

// Assignment implements partition.Streamer.
func (l *Loom) Assignment() *partition.Assignment { return l.tr.Assignment() }

// Publish captures the current assignment as an immutable epoch (see
// partition.Tracker.Publish), as the public layer does after every ingest
// call to feed its lock-free read path; pure single-threaded users (cmd
// tools) never pay for it.
func (l *Loom) Publish() *partition.Epoch { return l.tr.Publish() }
