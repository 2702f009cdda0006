// Package loom is a query-aware streaming graph partitioner, a faithful
// from-scratch implementation of
//
//	H. Firth, P. Missier, J. Aiston.
//	"Loom: Query-aware Partitioning of Online Graphs", EDBT 2018.
//
// Loom consumes a stream of labelled edges (an online graph) and
// continuously assigns vertices to k partitions, optimising placement for a
// workload Q of sub-graph pattern-matching queries with known relative
// frequencies. It discovers the traversal patterns ("motifs") that the
// workload visits most, detects sub-graphs matching those motifs as they
// form in the stream, and places each matching cluster inside a single
// partition — cutting the inter-partition traversals (ipt) that dominate
// distributed query latency.
//
// # Quick start
//
//	wl := loom.NewWorkload("social")
//	wl.Add("friends-of-friends", loom.Path("person", "person", "person"), 0.7)
//	wl.Add("same-city", loom.Path("person", "city", "person"), 0.3)
//
//	p, err := loom.New(loom.Options{Partitions: 4, ExpectedVertices: 10000}, wl)
//	// mirror placements as they happen (e.g. into a query router):
//	p.OnPlace(func(ev loom.PlacementEvent) { router.Apply(ev) })
//	// stream edges in batches — any number of goroutines may feed:
//	err = p.AddBatch([]loom.StreamEdge{
//		{U: 1, LU: "person", V: 2, LV: "person"},
//		{U: 2, LU: "person", V: 7, LV: "city"},
//	})
//	// ...
//	p.Flush() // drain the window at end-of-stream
//	snap := p.Snapshot() // consistent view, readable without blocking ingest
//	part, ok := snap.PartitionOf(1)
//
// # Concurrency and migration from the per-edge API
//
// A Partitioner is safe for concurrent use: N producers may call AddBatch
// (or AddEdge) while other goroutines read placements. Batches are applied
// atomically, and a single-threaded AddBatch replay is bit-identical to the
// historical per-edge AddEdge path, so existing code keeps working
// unchanged: AddEdge remains (it delegates to AddEdgeE and panics on
// corrupt input, as it always did), while AddBatch/AddEdgeE return errors
// and Err exposes the first ingest error. Prefer AddBatch for throughput —
// it pays the ingest lock once per batch instead of once per edge — and
// Snapshot for reads that must not block (or be blocked by) ingest.
//
// The package also exposes the paper's baseline streaming partitioners
// (Hash, LDG, Fennel) behind the same interface via NewBaseline, the
// evaluation datasets via GenerateDataset/DatasetWorkload, and an ipt
// evaluator via Evaluate — everything needed to reproduce the paper's
// experiments (see cmd/loom-bench and EXPERIMENTS.md).
package loom

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loom/internal/core"
	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/pattern"
	"loom/internal/refine"
	"loom/internal/signature"
	"loom/internal/simulate"
	"loom/internal/tpstry"
	"loom/internal/wal"
	"loom/internal/workload"
)

// StreamEdge is one element of the input stream: an edge with the labels of
// both endpoints (labels travel with edges because a vertex may first
// appear inside one).
type StreamEdge struct {
	U  int64
	LU string
	V  int64
	LV string
}

// Options configures a Partitioner. Zero values take the paper's defaults.
type Options struct {
	// Partitions is k, the number of partitions (required).
	Partitions int
	// ExpectedVertices sizes the per-partition capacity C = ν·n/k
	// (required; streaming balance needs a capacity estimate, §4).
	ExpectedVertices int
	// ExpectedEdges is used by the Fennel baseline's α (optional; ignored
	// by Loom itself).
	ExpectedEdges int
	// WindowSize is the sliding window t in edges (default 10_000).
	WindowSize int
	// SupportThreshold is the motif threshold T (default 0.40).
	SupportThreshold float64
	// Alpha is equal opportunism's rationing aggression (default 2/3).
	Alpha float64
	// MaxImbalance is the bound b / Fennel's ν (default 1.1).
	MaxImbalance float64
	// SignaturePrime is the finite-field modulus p (default 251, §2.3).
	SignaturePrime uint32
	// Seed makes signature label values and any internal randomness
	// reproducible (default 1).
	Seed int64
	// Workers is the parallelism of batch ingest: AddBatch runs a
	// prepare pre-pass (edge conversion, vertex/label resolution, motif
	// gate) across this many goroutines before the sequential placement
	// core consumes the batch, and large eviction rounds scatter their
	// bids across the same pool. Placements are bit-identical for every
	// value — parallelism changes only throughput. 0 (the default) uses
	// GOMAXPROCS at construction time; 1 disables the pipeline and keeps
	// ingest on the exact single-threaded path. Only Loom partitioners
	// parallelise; baselines ignore the knob.
	Workers int
	// KeepGraph records every accepted edge so Evaluate can replay the
	// workload over the final partitioning (default true; disable for
	// large streams where only the assignment matters).
	DisableGraphRecording bool
	// SpillDir, when non-empty, bounds the recorded graph's memory at
	// very large scale by spilling frozen chunks of its compressed edge
	// log to files in this directory (written durably: temp file, fsync,
	// rename, directory fsync). Evaluate/Simulate read spilled chunks
	// back sequentially, one at a time. A failed spill degrades
	// gracefully — the chunk stays resident and is retried at the next
	// Checkpoint (or GraphCompact). Ignored when recording is disabled.
	SpillDir string

	// WALDir enables durability: every ingest call is appended to a
	// write-ahead segment log in this directory before it is applied, and
	// Checkpoint writes atomic full-state snapshots there. A durable
	// partitioner is constructed with Open (New rejects a non-empty
	// WALDir); see the package's "Durability & recovery" documentation.
	// Empty (the default) disables the WAL entirely.
	WALDir string
	// WALSync selects the fsync policy for the log (default WALSyncBatch).
	WALSync WALSyncPolicy
	// WALSegmentBytes rotates log segments at this size (default 4 MiB).
	WALSegmentBytes int
	// WALKeepCheckpoints retains this many checkpoints (default 2: the
	// latest plus one fallback in case the latest is corrupt).
	WALKeepCheckpoints int
	// WALFailure selects how ingest responds when the log itself fails —
	// a segment write or fsync error that survives WALAppendRetries
	// retries. FailStop (the default) makes the failing call error and
	// latches the sticky Err; DegradeToMemory trips a breaker instead:
	// placements keep flowing in memory while DurabilityLost reports what
	// the disk is guaranteed to hold, and a successful Checkpoint on a
	// recovered disk re-arms the log.
	WALFailure WALFailurePolicy
	// WALAppendRetries is how many times a failed log write or fsync is
	// retried (sleeping WALRetryBackoff, doubled per attempt, in between)
	// before WALFailure decides the outcome. 0 (the default) means 2
	// retries; negative disables retrying.
	WALAppendRetries int
	// WALRetryBackoff is the initial delay between log write retries,
	// doubling per attempt (default 10ms). Retries run under the ingest
	// lock: concurrent writers stall, lock-free reads do not.
	WALRetryBackoff time.Duration
}

// Pattern is a small labelled query graph.
type Pattern struct {
	g *graph.Graph
}

// Path returns the path pattern l1 − l2 − … − ln.
func Path(labels ...string) *Pattern {
	return &Pattern{g: pattern.Path(toLabels(labels)...)}
}

// Cycle returns the cycle pattern l1 − l2 − … − ln − l1.
func Cycle(labels ...string) *Pattern {
	return &Pattern{g: pattern.Cycle(toLabels(labels)...)}
}

// Star returns a star pattern with a centre label and one leaf per label.
func Star(centre string, leaves ...string) *Pattern {
	return &Pattern{g: pattern.Star(graph.Label(centre), toLabels(leaves)...)}
}

// NewPattern returns an empty pattern for incremental construction.
func NewPattern() *Pattern { return &Pattern{g: graph.New()} }

// AddEdge adds a labelled edge between pattern vertices u and v, creating
// them as needed. It returns the pattern for chaining and panics on label
// conflicts (patterns are built from literals; a conflict is a programming
// error).
func (p *Pattern) AddEdge(u int64, lu string, v int64, lv string) *Pattern {
	added, err := p.g.EnsureEdge(graph.VertexID(u), graph.Label(lu), graph.VertexID(v), graph.Label(lv))
	if err != nil {
		panic(fmt.Sprintf("loom: pattern edge %d-%d: %v", u, v, err))
	}
	if !added {
		panic(fmt.Sprintf("loom: duplicate pattern edge %d-%d", u, v))
	}
	return p
}

// Edges returns the number of edges in the pattern.
func (p *Pattern) Edges() int { return p.g.NumEdges() }

func toLabels(ss []string) []graph.Label {
	out := make([]graph.Label, len(ss))
	for i, s := range ss {
		out[i] = graph.Label(s)
	}
	return out
}

// Workload is a multiset of pattern queries with relative frequencies
// (§1.3).
type Workload struct {
	name    string
	queries []workload.Query
}

// NewWorkload returns an empty named workload.
func NewWorkload(name string) *Workload { return &Workload{name: name} }

// Add appends a query pattern with its relative frequency (any positive
// weight; Loom normalises internally). It returns the workload for
// chaining.
func (w *Workload) Add(name string, p *Pattern, freq float64) *Workload {
	w.queries = append(w.queries, workload.Query{Name: name, Pattern: p.g, Freq: freq})
	return w
}

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.queries) }

// QueryInfo describes one workload query for consumers that plan around
// the workload without executing it — e.g. a router deciding how far a
// scatter-gather pattern query can reach from its seed vertex.
type QueryInfo struct {
	Name string
	Freq float64
	// Edges is the number of edges in the query pattern.
	Edges int
	// Diameter is the longest shortest-path distance (in hops) between any
	// two pattern vertices: from whichever vertex a seed binds to, every
	// other match vertex is within Diameter hops.
	Diameter int
	// Labels are the distinct vertex labels the pattern mentions, sorted.
	Labels []string
}

// Queries describes the workload's queries (see QueryInfo). The returned
// slice is a fresh copy in Add order.
func (w *Workload) Queries() []QueryInfo {
	out := make([]QueryInfo, len(w.queries))
	for i, q := range w.queries {
		labelSet := map[string]bool{}
		for _, l := range q.Pattern.Labels() {
			labelSet[string(l)] = true
		}
		labels := make([]string, 0, len(labelSet))
		for l := range labelSet {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		out[i] = QueryInfo{
			Name:     q.Name,
			Freq:     q.Freq,
			Edges:    q.Pattern.NumEdges(),
			Diameter: patternDiameter(q.Pattern),
			Labels:   labels,
		}
	}
	return out
}

// patternDiameter is the diameter of a (small, connected) pattern graph:
// BFS from every vertex, take the largest eccentricity. Patterns are a
// handful of vertices, so the quadratic walk is irrelevant.
func patternDiameter(g *graph.Graph) int {
	verts := g.Vertices()
	diam := 0
	dist := make(map[graph.VertexID]int, len(verts))
	queue := make([]graph.VertexID, 0, len(verts))
	var ns []graph.VertexID
	for _, s := range verts {
		clear(dist)
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			ns = g.Neighbors(v, ns[:0])
			for _, n := range ns {
				if _, seen := dist[n]; !seen {
					dist[n] = dist[v] + 1
					if dist[n] > diam {
						diam = dist[n]
					}
					queue = append(queue, n)
				}
			}
		}
	}
	return diam
}

func (w *Workload) internal() workload.Workload {
	return workload.Workload{Name: w.name, Queries: w.queries}
}

// Stats mirrors the partitioner's processing counters.
type Stats struct {
	EdgesProcessed int
	ImmediateEdges int // bypassed the window (no single-edge motif)
	WindowedEdges  int // buffered in Ptemp
	Evictions      int
	WindowLen      int // edges currently buffered (Ptemp size)
}

// Partitioner is the public handle over a streaming partitioner: Loom
// itself or one of the baselines.
//
// A Partitioner is safe for concurrent use: ingest (AddBatch, AddEdge,
// Flush) serialises behind a single writer lock, so any number of producer
// goroutines can feed one partitioner, and reads (PartitionOf, Sizes,
// Snapshot, …) observe only batch-atomic states — never a half-applied
// eviction. Reads do not take the lock at all on the common path: every
// batch boundary publishes an immutable copy-on-write epoch of the
// assignment through an atomic pointer, so PartitionOf and Snapshot run
// lock-free against the last published epoch while producers keep
// ingesting. The underlying streamers remain single-threaded; this type is
// the concurrency boundary.
type Partitioner struct {
	name string
	opt  Options

	// view is the lock-free read surface: the latest published epoch (or
	// the refined assignment), swapped atomically at every batch boundary
	// with the write lock held. pending flags per-edge ingest (AddEdgeE)
	// that has not been published yet: while set, readers fall back to the
	// locked paths so they never miss their own writes. Both are read
	// without the lock.
	view    atomic.Pointer[readView]
	pending atomic.Bool

	// mu guards every field below: ingest and other mutations take the
	// write lock, reads the read lock. Placement-event handlers run while
	// the write lock is held (see OnPlace).
	mu       sync.RWMutex
	streamer partition.Streamer
	tr       *partition.Tracker // streamer's tracker (cheap reads, event hook)
	loom     *core.Loom         // non-nil only for algo == loom
	trie     *tpstry.Trie
	wl       *Workload
	// g is the recorded graph (nil when disabled). Its compressed edge log
	// doubles as the accepted-edge log: Evaluate/Simulate capture a
	// graph.Replay under the read lock — O(1), pinned slice headers plus
	// the log's chunk list — and replay it into a private graph with no
	// lock held, so evaluations never stall ingest.
	g *graph.Graph
	// refined, when non-nil, supersedes the streamer's assignment (set by
	// Refine).
	refined *partition.Assignment

	err      error // first ingest error (sticky; see Err)
	seq      uint64
	handlers []func(PlacementEvent)
	// evHooked records that the streamer-level event hooks are installed.
	// It is set by the first OnPlace and — crucially for recovery — by
	// restore when the checkpointed partitioner had subscribers: the hooks
	// must advance the event seq during replay even before any handler
	// re-subscribes, or post-recovery seqs would diverge from the
	// uninterrupted run's.
	evHooked bool

	// Durability (nil/zero without a WAL; see Open, Checkpoint, Close).
	wal       *wal.Log
	walClosed bool
	// Breaker state under WALFailure == DegradeToMemory: degraded means a
	// log failure exhausted its retries and ingest now runs memory-only;
	// duraErr is the first failure and duraLSN the watermark of the last
	// record the disk is guaranteed to hold (see DurabilityLost).
	degraded bool
	duraErr  error
	duraLSN  uint64
	// follower marks a read-only replica built by Follow: direct ingest is
	// refused; state advances only through Follower.Poll.
	follower  bool
	walEnc    wal.Enc  // record staging; starts with the 8-byte frame hole (walEncReset)
	walLabels []string // label-table scratch reused across batch records
	// baseQueries is the length of the construction-time workload; queries
	// beyond it arrived via AddQuery and are checkpointed as a replayable
	// tail (added) on top of the base workload fingerprint.
	baseQueries int
	added       []addedQuery
}

// addedQuery is one AddQuery call retained for checkpointing.
type addedQuery struct {
	name string
	pat  *Pattern
	freq float64
}

// readView is one published read surface: exactly one of epoch (the
// streamer's latest copy-on-write epoch) or refined (the immutable
// assignment installed by Refine) is non-nil. Both are immutable, so a
// single atomic load hands a reader a complete consistent view.
type readView struct {
	epoch   *partition.Epoch
	refined *partition.Assignment
}

// publishLocked publishes the current assignment state to the lock-free
// read surface; p.mu must be held for writing (every mutation path ends
// here, making batch boundaries the epochs' consistent points). Returns nil
// for streamers without a tracker (no shipped streamer lacks one).
func (p *Partitioner) publishLocked() *readView {
	var rv *readView
	switch {
	case p.refined != nil:
		if prev := p.view.Load(); prev != nil && prev.refined == p.refined {
			rv = prev
		} else {
			rv = &readView{refined: p.refined}
			p.view.Store(rv)
		}
	case p.tr != nil:
		e := p.tr.Publish()
		if prev := p.view.Load(); prev != nil && prev.epoch == e {
			rv = prev
		} else {
			rv = &readView{epoch: e}
			p.view.Store(rv)
		}
	}
	// Clear only after the view store: a reader that observes
	// pending == false is guaranteed to load a view at least as fresh as
	// every write that preceded this publish.
	p.pending.Store(false)
	return rv
}

// loadView returns the published read surface when it is current — no
// unpublished per-edge ingest — or nil, in which case the caller takes a
// locked fallback path.
func (p *Partitioner) loadView() *readView {
	if p.pending.Load() {
		return nil
	}
	return p.view.Load()
}

// tracked is the capability the public layer uses for cheap placement
// reads and event hooks; every shipped streamer exposes its tracker.
type tracked interface{ Tracker() *partition.Tracker }

func (o Options) normalise() (Options, error) {
	if o.Partitions < 1 {
		return o, fmt.Errorf("loom: Partitions must be >= 1, got %d", o.Partitions)
	}
	if o.ExpectedVertices < 1 {
		return o, fmt.Errorf("loom: ExpectedVertices must be >= 1, got %d", o.ExpectedVertices)
	}
	if o.WindowSize == 0 {
		o.WindowSize = 10_000
	}
	if o.SupportThreshold == 0 {
		o.SupportThreshold = 0.40
	}
	if o.Alpha == 0 {
		o.Alpha = 2.0 / 3.0
	}
	if o.MaxImbalance == 0 {
		o.MaxImbalance = partition.DefaultImbalance
	}
	if o.SignaturePrime == 0 {
		o.SignaturePrime = signature.DefaultP
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return o, fmt.Errorf("loom: Workers must be >= 1 (or 0 for GOMAXPROCS), got %d", o.Workers)
	}
	if o.WALSync < WALSyncBatch || o.WALSync > WALSyncNone {
		return o, fmt.Errorf("loom: unknown WALSync policy %d", o.WALSync)
	}
	if o.WALSegmentBytes == 0 {
		o.WALSegmentBytes = 4 << 20
	}
	if o.WALSegmentBytes < 1024 {
		return o, fmt.Errorf("loom: WALSegmentBytes must be >= 1024, got %d", o.WALSegmentBytes)
	}
	if o.WALKeepCheckpoints == 0 {
		o.WALKeepCheckpoints = 2
	}
	if o.WALKeepCheckpoints < 1 {
		return o, fmt.Errorf("loom: WALKeepCheckpoints must be >= 1, got %d", o.WALKeepCheckpoints)
	}
	if o.WALFailure < FailStop || o.WALFailure > DegradeToMemory {
		return o, fmt.Errorf("loom: unknown WALFailure policy %d", o.WALFailure)
	}
	if o.WALRetryBackoff == 0 {
		o.WALRetryBackoff = 10 * time.Millisecond
	}
	return o, nil
}

// New builds a Loom partitioner for the given workload. For a durable
// partitioner (Options.WALDir set), use Open instead — construction and
// recovery are the same operation there.
func New(opt Options, wl *Workload) (*Partitioner, error) {
	if opt.WALDir != "" {
		return nil, fmt.Errorf("loom: Options.WALDir is set; use loom.Open to construct (or recover) a durable partitioner")
	}
	opt, err := opt.normalise()
	if err != nil {
		return nil, err
	}
	return newLoom(opt, wl)
}

// newLoom is New after option validation, shared with Open (which builds
// the same fresh partitioner and then restores state into it).
func newLoom(opt Options, wl *Workload) (*Partitioner, error) {
	if wl == nil || wl.Len() == 0 {
		return nil, fmt.Errorf("loom: a non-empty workload is required (use NewBaseline for workload-agnostic partitioning)")
	}
	iwl := wl.internal()
	if err := iwl.Validate(); err != nil {
		return nil, err
	}
	scheme := signature.NewScheme(opt.SignaturePrime, opt.Seed)
	trie, err := iwl.BuildTrie(scheme)
	if err != nil {
		return nil, err
	}
	lm, err := core.New(core.Config{
		K:                opt.Partitions,
		Capacity:         partition.CapacityFor(opt.ExpectedVertices, opt.Partitions, opt.MaxImbalance),
		WindowSize:       opt.WindowSize,
		SupportThreshold: opt.SupportThreshold,
		Alpha:            opt.Alpha,
		MaxImbalance:     opt.MaxImbalance,
		Workers:          opt.Workers,
	}, trie)
	if err != nil {
		return nil, err
	}
	p := &Partitioner{
		name: "loom", streamer: lm, tr: lm.Tracker(), loom: lm,
		trie: trie, wl: wl, opt: opt, baseQueries: wl.Len(),
	}
	if p.g, err = newRecordedGraph(opt); err != nil {
		return nil, err
	}
	p.publishLocked() // seed the lock-free read surface (no sharing yet)
	return p, nil
}

// newRecordedGraph builds the recorded graph per opt — nil when recording
// is disabled — pre-sizing the duplicate-edge set from ExpectedEdges and
// configuring edge-log spilling when SpillDir is set.
func newRecordedGraph(opt Options) (*graph.Graph, error) {
	if opt.DisableGraphRecording {
		return nil, nil
	}
	g := graph.New()
	g.Reserve(opt.ExpectedEdges)
	if opt.SpillDir != "" {
		if err := g.SpillTo(wal.OS(), opt.SpillDir); err != nil {
			return nil, fmt.Errorf("loom: %w", err)
		}
	}
	return g, nil
}

// NewBaseline builds one of the paper's baseline partitioners — "hash",
// "ldg" or "fennel" — behind the same interface, with an optional workload
// used only by Evaluate.
func NewBaseline(algo string, opt Options, wl *Workload) (*Partitioner, error) {
	if opt.WALDir != "" {
		return nil, fmt.Errorf("loom: the WAL is only supported for Loom partitioners (use loom.Open)")
	}
	opt, err := opt.normalise()
	if err != nil {
		return nil, err
	}
	capC := partition.CapacityFor(opt.ExpectedVertices, opt.Partitions, opt.MaxImbalance)
	var s partition.Streamer
	switch algo {
	case "hash":
		s = partition.NewHash(opt.Partitions, capC)
	case "ldg":
		s = partition.NewLDG(opt.Partitions, capC)
	case "fennel":
		m := opt.ExpectedEdges
		if m == 0 {
			m = 2 * opt.ExpectedVertices
		}
		s = partition.NewFennel(opt.Partitions, opt.ExpectedVertices, m)
	default:
		return nil, fmt.Errorf("loom: unknown baseline %q (want hash, ldg or fennel)", algo)
	}
	p := &Partitioner{name: algo, streamer: s, wl: wl, opt: opt}
	if tk, ok := s.(tracked); ok {
		p.tr = tk.Tracker()
	}
	if p.g, err = newRecordedGraph(opt); err != nil {
		return nil, err
	}
	p.publishLocked() // seed the lock-free read surface (no sharing yet)
	return p, nil
}

// Name returns the algorithm name ("loom", "hash", "ldg", "fennel").
func (p *Partitioner) Name() string { return p.name }

// AddBatch feeds a batch of stream edges in order. Batches are applied
// atomically with respect to every other ingest call and read: N producer
// goroutines can call AddBatch concurrently, and a snapshot or placement
// read never observes a half-applied batch. Self-loops and duplicates are
// tolerated (dropped); an edge that conflicts with an already-recorded
// vertex label (corrupt input) is dropped, recorded as the sticky Err, and
// reported in the returned error — the rest of the batch is still
// processed. A single-threaded AddBatch replay yields placements
// bit-identical to the per-edge AddEdge path.
//
// AddBatch is the preferred ingest path: the ingest lock (and the public
// per-call overhead around it) is paid once per batch rather than once per
// edge — the benchmark's loom.addbatch_ns_per_edge against
// loom.addedge_ns_per_edge (benchmark/README.md) measures the difference. With
// Options.Workers > 1, Loom partitioners additionally run the batch
// through a stage-parallel pipeline (parallel prepare pre-pass, sequential
// placement core) whose placements are bit-identical to the single-threaded
// path; see the Workers option.
func (p *Partitioner) AddBatch(batch []StreamEdge) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.publishLocked() // batch boundary: refresh the lock-free epoch
	if err := p.walAppendBatch(batch); err != nil {
		return err
	}
	return p.applyBatchLocked(batch)
}

// applyBatchLocked is AddBatch's application half, shared with WAL replay
// (p.mu held for writing; the batch is already logged or being replayed
// from the log). Corrupt edges are dropped with the sticky-error
// semantics; because those error paths are deterministic, replaying a
// logged batch reproduces them exactly.
func (p *Partitioner) applyBatchLocked(batch []StreamEdge) error {
	if p.loom != nil && p.opt.Workers > 1 {
		return p.addBatchParallel(batch)
	}
	var firstErr error
	// Edges dispatch to the streamer one at a time rather than through
	// Streamer.ProcessEdges: the public edge type must be converted
	// per-element anyway, and staging the conversion in a []graph.StreamEdge
	// buffer just to hand it over in one call was measured slower (one
	// extra copy per edge) than dispatching as we convert. ProcessEdges
	// earns its keep for callers that already hold internal stream slices
	// (cmd tools, the bench harness).
	for i := range batch {
		e := &batch[i]
		se := graph.StreamEdge{
			U: graph.VertexID(e.U), LU: graph.Label(e.LU),
			V: graph.VertexID(e.V), LV: graph.Label(e.LV),
		}
		if p.g != nil {
			if _, err := p.g.EnsureEdge(se.U, se.LU, se.V, se.LV); err != nil {
				err = fmt.Errorf("loom: %w", err)
				if firstErr == nil {
					firstErr = err
				}
				if p.err == nil {
					p.err = err
				}
				continue
			}
		}
		p.streamer.ProcessEdge(se)
	}
	return firstErr
}

// addBatchParallel feeds a batch through the Loom core's stage-parallel
// pipeline (p.mu held for writing). The pipeline pulls edges via the at
// callback — conversion from the public edge type happens inside the
// parallel prepare pre-pass, off the sequential path — and, when graph
// recording is on, validates the batch through the same serial EnsureEdge
// walk as the per-edge path (overlapped with the pre-pass), dropping
// corrupt edges with the same sticky-error semantics.
func (p *Partitioner) addBatchParallel(batch []StreamEdge) error {
	var firstErr error
	at := func(i int) graph.StreamEdge {
		e := &batch[i]
		return graph.StreamEdge{
			U: graph.VertexID(e.U), LU: graph.Label(e.LU),
			V: graph.VertexID(e.V), LV: graph.Label(e.LV),
		}
	}
	var validate func(reject func(int))
	if p.g != nil {
		validate = func(reject func(int)) {
			for i := range batch {
				e := &batch[i]
				se := graph.StreamEdge{
					U: graph.VertexID(e.U), LU: graph.Label(e.LU),
					V: graph.VertexID(e.V), LV: graph.Label(e.LV),
				}
				if _, err := p.g.EnsureEdge(se.U, se.LU, se.V, se.LV); err != nil {
					err = fmt.Errorf("loom: %w", err)
					if firstErr == nil {
						firstErr = err
					}
					if p.err == nil {
						p.err = err
					}
					reject(i)
					continue
				}
			}
		}
	}
	p.loom.ProcessBatchFunc(len(batch), at, validate)
	return firstErr
}

// AddEdgeE feeds one stream edge, returning an error instead of panicking
// on corrupt input (a label conflict with an already-recorded vertex). The
// edge is dropped on error and the error is also retained as the sticky
// Err. Self-loops and duplicates are tolerated (dropped), matching the
// robustness expected of an online ingest path. Safe for concurrent use.
func (p *Partitioner) AddEdgeE(u int64, lu string, v int64, lv string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wal != nil || p.walClosed || p.follower {
		// Logged as (and replayed exactly like) a one-edge batch; PR 4's
		// golden guarantee makes the two paths bit-identical.
		one := [1]StreamEdge{{U: u, LU: lu, V: v, LV: lv}}
		if err := p.walAppendBatch(one[:]); err != nil {
			return err
		}
	}
	se := graph.StreamEdge{
		U: graph.VertexID(u), LU: graph.Label(lu),
		V: graph.VertexID(v), LV: graph.Label(lv),
	}
	if p.g != nil {
		if _, err := p.g.EnsureEdge(se.U, se.LU, se.V, se.LV); err != nil {
			err = fmt.Errorf("loom: %w", err)
			if p.err == nil {
				p.err = err
			}
			return err
		}
	}
	p.streamer.ProcessEdge(se)
	// Per-edge ingest does not pay a publish per call (that would copy a
	// dirty page per edge); it flags the read surface stale instead, and
	// readers fall back to the locked path until the next batch boundary
	// (AddBatch, Flush, or a Snapshot) publishes.
	p.pending.Store(true)
	return nil
}

// AddEdge feeds one stream edge. It is the historical per-edge ingest
// call, kept for compatibility: it delegates to AddEdgeE and panics on
// corrupt input (AddEdge has no error channel by design). New code should
// prefer AddBatch, which amortises per-call overhead and returns errors.
func (p *Partitioner) AddEdge(u int64, lu string, v int64, lv string) {
	if err := p.AddEdgeE(u, lu, v, lv); err != nil {
		panic(err.Error())
	}
}

// AddStreamEdge is AddEdge for a StreamEdge value.
func (p *Partitioner) AddStreamEdge(e StreamEdge) { p.AddEdge(e.U, e.LU, e.V, e.LV) }

// Err returns the first ingest error (a corrupt edge dropped by AddBatch,
// AddEdgeE or a batch), or nil. The error is sticky: it is never cleared,
// so a producer pipeline can ignore per-batch errors and check once at
// end-of-stream.
func (p *Partitioner) Err() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.err
}

// GraphMemory reports the recorded graph's memory breakdown (adjacency,
// duplicate-edge set, edge log, intern tables) and how much of the edge
// log is resident on disk rather than in memory. ok is false when graph
// recording is disabled. O(|V|); sample it, don't call per edge.
func (p *Partitioner) GraphMemory() (m graph.MemStats, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.g == nil {
		return graph.MemStats{}, false
	}
	return p.g.Mem(), true
}

// GraphSize reports the recorded graph's vertex and edge counts (the
// denominator of any bytes-per-edge figure over GraphMemory). ok is false
// when graph recording is disabled.
func (p *Partitioner) GraphSize() (vertices, edges int, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.g == nil {
		return 0, 0, false
	}
	return p.g.NumVertices(), p.g.NumEdges(), true
}

// GraphCompact retries any recorded-graph edge-log spills that previously
// failed (see Options.SpillDir). It is a no-op — and returns nil — when
// recording is disabled or spilling is not configured. Checkpoint calls
// this automatically.
func (p *Partitioner) GraphCompact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.g == nil {
		return nil
	}
	return p.g.Compact()
}

// Flush drains the sliding window, assigning all buffered edges. Call at
// end-of-stream (or at a checkpoint) before reading final placements.
//
// On a durable partitioner the flush is logged before it is applied; if
// the log rejects the record (disk failure, or Close already ran) the
// flush is NOT applied — the in-memory state must never run ahead of what
// recovery can reproduce — and the error is retained as the sticky Err
// (Flush itself has no error return, for compatibility).
func (p *Partitioner) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.walAppendFlush(); err != nil {
		return
	}
	p.streamer.Flush()
	p.publishLocked()
}

// EventKind discriminates placement events.
type EventKind uint8

const (
	// EventPlace reports a vertex permanently assigned to a partition.
	// Vertices are never reassigned in one-pass streaming, so replaying
	// EventPlace events reconstructs the assignment exactly.
	EventPlace EventKind = iota
	// EventEvict reports an edge leaving the sliding window Ptemp (Loom
	// partitioners only; baselines buffer nothing). Its endpoints are
	// either already placed or placed by EventPlace events of the same
	// eviction round.
	EventEvict
)

// PlacementEvent is one observable partitioning decision: a vertex →
// partition placement, or a window eviction. Events carry a per-partitioner
// sequence number, dense from 0, in the exact order decisions were taken.
type PlacementEvent struct {
	Seq  uint64
	Kind EventKind
	// V is the placed vertex (EventPlace) or one endpoint of the evicted
	// edge (EventEvict).
	V int64
	// Other is the second endpoint of the evicted edge (EventEvict only).
	Other int64
	// Partition is the target partition (EventPlace); -1 for EventEvict.
	Partition int
}

// OnPlace subscribes fn to placement events: every vertex → partition
// decision (and, for Loom, every window eviction) is delivered exactly
// once, in decision order, as it happens — the feed a query router needs to
// mirror the assignment live. Subscribe before ingesting for a complete
// mirror; events are not replayed retroactively. To subscribe after ingest
// has started, use Subscribe, which additionally reports the resume point
// the mirror needs to splice a snapshot onto the live feed.
//
// Handlers run synchronously on the ingesting goroutine while the
// partitioner's ingest lock is held: they must be fast and must not call
// back into the Partitioner (hand the event to a channel or an
// independently-locked structure instead). Multiple handlers all receive
// every event. Offline refinement (Refine) does not emit events — it
// produces a new assignment rather than streaming decisions; take a
// Snapshot after refining instead.
func (p *Partitioner) OnPlace(fn func(PlacementEvent)) { p.Subscribe(fn) }

// Subscribe is OnPlace with a resume point: it registers fn and returns the
// sequence number the first event delivered to fn will carry. The contract,
// which holds even when the subscription races ongoing ingest:
//
//   - fn receives every event with Seq >= the returned firstSeq, exactly
//     once, in Seq order, with no holes (Seqs are dense).
//   - Events with Seq < firstSeq were emitted before the subscription and
//     are not replayed — but a Snapshot taken any time after Subscribe
//     returns covers every placement those missed events reported. Events
//     are emitted while the ingest lock is held and each batch publishes
//     its epoch before releasing that lock, so the snapshot cannot be
//     older than the last pre-subscription event.
//
// Placements are write-once (a vertex is never reassigned), so the pair
// (snapshot, event stream from firstSeq) is a complete and consistent view
// of every placement decision regardless of when the subscription
// happened: route a vertex through the live event mirror first and fall
// back to the snapshot for anything the feed has not delivered. This is
// the splice a late-joining query router performs at attach time — see the
// router package.
func (p *Partitioner) Subscribe(fn func(PlacementEvent)) (firstSeq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handlers = append(p.handlers, fn)
	p.installEventHooksLocked()
	return p.seq
}

// installEventHooksLocked installs the streamer-level event hooks exactly
// once (p.mu held for writing). Recovery calls it before replay when the
// checkpointed partitioner had subscribers, so the event sequence keeps
// advancing through replayed decisions — with no handlers yet, emit
// stamps and counts but fans out to nobody.
func (p *Partitioner) installEventHooksLocked() {
	if p.evHooked {
		return
	}
	p.evHooked = true
	if p.tr != nil {
		p.tr.SetAssignHook(func(v int64, id partition.ID) {
			p.emit(PlacementEvent{Kind: EventPlace, V: v, Partition: int(id)})
		})
	}
	if p.loom != nil {
		p.loom.SetEvictHook(func(u, v int64) {
			p.emit(PlacementEvent{Kind: EventEvict, V: u, Other: v, Partition: -1})
		})
	}
}

// emit stamps and fans out one event. Called only from the streamer's
// hooks, i.e. with p.mu held for writing by the ingesting goroutine.
func (p *Partitioner) emit(ev PlacementEvent) {
	ev.Seq = p.seq
	p.seq++
	for _, h := range p.handlers {
		h(ev)
	}
}

// Snapshot is an immutable view of a partitioning at one consistent batch
// boundary: it shares no mutable state with the partitioner, so it can be
// read from any goroutine, for any length of time, without blocking — or
// being invalidated by — ongoing ingest. Snapshots are backed by
// copy-on-write assignment pages shared with the partitioner's published
// epochs; holding one costs nothing beyond the pages that ingest has since
// replaced.
type Snapshot struct {
	name string
	e    *partition.Epoch      // epoch-backed (the common case)
	a    *partition.Assignment // assignment-backed: refined, or the deep-copy fallback

	asgOnce sync.Once
	asg     map[int64]int // memoised Assignments result
}

// newSnapshot wraps a published read view.
func newSnapshot(name string, rv *readView) *Snapshot {
	if rv.refined != nil {
		return &Snapshot{name: name, a: rv.refined}
	}
	return &Snapshot{name: name, e: rv.epoch}
}

// Snapshot captures the current assignment (the refined one, if Refine has
// run). The capture is O(1) — one atomic load of the last published epoch,
// no lock, no per-vertex copying — so routers can snapshot at arbitrary
// frequency while ingest continues. Because ingest applies batches
// atomically and publishes at batch boundaries, a snapshot always
// corresponds to a batch boundary — the state some single-threaded prefix
// replay of the stream would produce. (After per-edge AddEdge ingest the
// capture briefly takes the ingest lock to publish the unpublished tail;
// batch ingest never pays this.)
func (p *Partitioner) Snapshot() *Snapshot {
	if rv := p.loadView(); rv != nil {
		return newSnapshot(p.name, rv)
	}
	// Per-edge ingest left the published epoch stale: publish the tail.
	p.mu.Lock()
	rv := p.publishLocked()
	p.mu.Unlock()
	if rv != nil {
		return newSnapshot(p.name, rv)
	}
	// No tracker (never the case for shipped streamers): isolated deep copy.
	p.mu.RLock()
	defer p.mu.RUnlock()
	return &Snapshot{name: p.name, a: p.snapshotLocked()}
}

// snapshotLocked returns an isolated assignment; p.mu must be held (read
// or write). The refined assignment is immutable once installed (Refine
// replaces it wholesale and its vertex table — a pre-refine snapshot clone
// — never grows), so it is shared rather than copied; the live tracker's
// state is cloned.
func (p *Partitioner) snapshotLocked() *partition.Assignment {
	if p.refined != nil {
		return p.refined
	}
	return p.streamer.Snapshot()
}

// Name returns the algorithm name that produced the snapshot.
func (s *Snapshot) Name() string { return s.name }

// Partitions returns k.
func (s *Snapshot) Partitions() int {
	if s.e != nil {
		return s.e.K()
	}
	return s.a.K
}

// PartitionOf returns v's partition in [0, Partitions), or ok = false if v
// was unassigned when the snapshot was taken (not yet seen, or still
// buffered in the window Ptemp). Point reads are lock-free and allocate
// nothing.
func (s *Snapshot) PartitionOf(v int64) (int, bool) {
	var id partition.ID
	if s.e != nil {
		id = s.e.Of(graph.VertexID(v))
	} else {
		id = s.a.Of(graph.VertexID(v))
	}
	if id == partition.Unassigned {
		return 0, false
	}
	return int(id), true
}

// Sizes returns the vertex count of each partition. The sizes were
// computed once when the snapshot's state was captured; the returned slice
// is shared and immutable — callers must not modify it (copy first if you
// need a mutable slice).
func (s *Snapshot) Sizes() []int {
	if s.e != nil {
		return s.e.Sizes()
	}
	return s.a.Sizes
}

// NumAssigned returns the number of placed vertices.
func (s *Snapshot) NumAssigned() int {
	if s.e != nil {
		return s.e.NumAssigned()
	}
	return s.a.NumAssigned()
}

// Imbalance returns max |Vi|/(n/k) − 1 over the snapshot.
func (s *Snapshot) Imbalance() float64 {
	return partition.ImbalanceOf(s.Partitions(), s.Sizes())
}

// Each calls f for every assigned vertex in first-seen order. Each is the
// zero-alloc bulk read: it walks the snapshot's shared pages directly,
// allocating nothing (unlike Assignments, which materialises a map).
func (s *Snapshot) Each(f func(v int64, part int)) {
	if s.e != nil {
		s.e.Each(func(v graph.VertexID, id partition.ID) { f(int64(v), int(id)) })
		return
	}
	s.a.Each(func(v graph.VertexID, id partition.ID) { f(int64(v), int(id)) })
}

// Assignments materialises the snapshot as a vertex → partition map. The
// map is built once on first call and memoised — subsequent calls return
// the same map — so callers must treat it as read-only (the snapshot is
// immutable; iterate with Each for allocation-free bulk reads).
func (s *Snapshot) Assignments() map[int64]int {
	s.asgOnce.Do(func() {
		out := make(map[int64]int, s.NumAssigned())
		s.Each(func(v int64, part int) { out[v] = part })
		s.asg = out
	})
	return s.asg
}

// PartitionOf returns v's partition in [0, Partitions), or ok = false while
// v is unassigned (not yet seen, or still buffered in the window Ptemp).
//
// The read is lock-free: one atomic load of the last published epoch, a
// concurrent hash probe and two array indexes — no mutex, no allocation —
// so any number of reader goroutines can issue point reads at full speed
// while producers ingest. It reflects the last batch boundary; only after
// per-edge AddEdge ingest (which defers publishing) does it fall back to a
// read-locked path so callers still see their own writes.
func (p *Partitioner) PartitionOf(v int64) (int, bool) {
	if rv := p.loadView(); rv != nil {
		var id partition.ID
		if rv.refined != nil {
			id = rv.refined.Of(graph.VertexID(v))
		} else {
			id = rv.epoch.Of(graph.VertexID(v))
		}
		if id == partition.Unassigned {
			return 0, false
		}
		return int(id), true
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	var id partition.ID
	switch {
	case p.refined != nil:
		id = p.refined.Of(graph.VertexID(v))
	case p.tr != nil:
		id = p.tr.PartOf(graph.VertexID(v))
	default:
		id = p.streamer.Assignment().Of(graph.VertexID(v))
	}
	if id == partition.Unassigned {
		return 0, false
	}
	return int(id), true
}

// Partitions returns k.
func (p *Partitioner) Partitions() int { return p.opt.Partitions }

// Sizes returns the current vertex count of each partition as a fresh
// copy, read atomically (a concurrent eviction's cluster assignment is
// either fully included or not at all). Lock-free on the common path, like
// PartitionOf.
func (p *Partitioner) Sizes() []int {
	if rv := p.loadView(); rv != nil {
		if rv.refined != nil {
			return append([]int(nil), rv.refined.Sizes...)
		}
		return append([]int(nil), rv.epoch.Sizes()...)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	switch {
	case p.refined != nil:
		return append([]int(nil), p.refined.Sizes...)
	case p.tr != nil:
		return p.tr.Sizes()
	default:
		return append([]int(nil), p.streamer.Assignment().Sizes...)
	}
}

// Assignments returns a copy of the full vertex → partition map, taken
// from a consistent snapshot (it can never observe a half-applied batch or
// eviction). The map is built from the last published epoch with no lock
// held on the common path.
func (p *Partitioner) Assignments() map[int64]int {
	if rv := p.loadView(); rv != nil {
		// A fresh wrapper per call keeps the documented copy semantics
		// (the memoised map is shared only within one Snapshot).
		return newSnapshot(p.name, rv).Assignments()
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	var a *partition.Assignment
	if p.refined != nil {
		a = p.refined
	} else {
		a = p.streamer.Assignment()
	}
	out := make(map[int64]int, a.NumAssigned())
	a.Each(func(v graph.VertexID, id partition.ID) { out[int64(v)] = int(id) })
	return out
}

// Stats returns processing counters (Loom-specific fields are zero for
// baselines).
func (p *Partitioner) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.loom == nil {
		return Stats{}
	}
	st := p.loom.Stats()
	return Stats{
		EdgesProcessed: st.EdgesProcessed,
		ImmediateEdges: st.ImmediateEdges,
		WindowedEdges:  st.WindowedEdges,
		Evictions:      st.Evictions,
		WindowLen:      p.loom.Window().Len(),
	}
}

// AddQuery extends the workload while streaming ("the TPSTry++ may be
// trivially updated to account for change in the frequencies of workload
// queries", §2). Only valid for Loom partitioners. Safe for concurrent use
// with ingest: edges arriving after AddQuery returns see the new motifs.
func (p *Partitioner) AddQuery(name string, pat *Pattern, freq float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.loom == nil {
		return fmt.Errorf("loom: %s baseline has no workload to update", p.name)
	}
	if err := p.walAppendQuery(name, pat, freq); err != nil {
		return err
	}
	return p.applyQueryLocked(name, pat, freq)
}

// applyQueryLocked is AddQuery's application half, shared with WAL replay
// and with the checkpoint's query-tail restore. Validation failures are
// deterministic, so a logged AddQuery that failed fails identically on
// replay.
func (p *Partitioner) applyQueryLocked(name string, pat *Pattern, freq float64) error {
	if err := p.trie.AddQuery(pat.g, freq); err != nil {
		return err
	}
	p.wl.Add(name, pat, freq)
	p.added = append(p.added, addedQuery{name: name, pat: pat, freq: freq})
	return nil
}

// Evaluation reports partitioning quality over the recorded graph.
type Evaluation struct {
	// IPT is the frequency-weighted inter-partition traversal count for
	// the workload (§1.3's quality measure).
	IPT float64
	// EdgeCut counts edges crossing partitions.
	EdgeCut int
	// Imbalance is max |Vi|/(n/k) − 1.
	Imbalance float64
	// AssignedVertices is the number of placed vertices.
	AssignedVertices int
}

// Evaluate executes the workload over the recorded graph and the current
// assignment. The Partitioner must have been built with graph recording
// enabled and (for baselines) a workload.
//
// Evaluate runs on a snapshot captured in O(1) under the read lock — the
// last published epoch plus the accepted-edge log's current length —
// after which the graph replay and the workload execution (typically far
// more expensive) run with no lock held, so concurrent AddBatch never
// stalls behind an in-flight evaluation.
//
// Replay window: the replayed graph is every accepted edge since the
// partitioner started (or was recovered) — checkpoints bound the log's
// resident memory, not its extent. With Options.SpillDir set, frozen log
// chunks live on disk and are streamed back one at a time here, so a
// long-lived durable partitioner's evaluation memory stays bounded while
// its replay window stays complete. Without a spill directory the log is
// fully resident at ~2–4 bytes per accepted edge.
func (p *Partitioner) Evaluate() (Evaluation, error) {
	rec, e, a, iwl, err := p.captureEval("Evaluate")
	if err != nil {
		return Evaluation{}, err
	}
	// No lock held from here: flatten the epoch and replay the graph.
	if a == nil {
		a = e.Materialise()
	}
	g := replayRecorded(rec)
	res, err := workload.Execute(g, a, iwl, workload.Options{})
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{
		IPT:              res.IPT,
		EdgeCut:          partition.EdgeCut(g, a),
		Imbalance:        partition.Imbalance(a),
		AssignedVertices: a.NumAssigned(),
	}, nil
}

// captureEval captures a consistent (accepted-edge replay, assignment)
// pair for Evaluate/Simulate under the read lock, in O(1) on the common
// path: the replay pins append-only headers and the edge log's immutable
// chunk list, and the epoch/refined view is immutable. Exactly one of the
// returned epoch and assignment is non-nil; after per-edge ingest, whose
// tail is unpublished, it degrades to the isolated O(V) assignment
// capture.
func (p *Partitioner) captureEval(op string) (graph.Replay, *partition.Epoch, *partition.Assignment, workload.Workload, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.g == nil {
		return graph.Replay{}, nil, nil, workload.Workload{}, fmt.Errorf("loom: graph recording disabled; %s unavailable", op)
	}
	if p.wl == nil || p.wl.Len() == 0 {
		return graph.Replay{}, nil, nil, workload.Workload{}, fmt.Errorf("loom: no workload to %s against", op)
	}
	rec := p.g.CaptureReplay()
	var e *partition.Epoch
	var a *partition.Assignment
	if rv := p.loadView(); rv != nil { // under RLock: replay and view are mutually consistent
		e, a = rv.epoch, rv.refined
	}
	if e == nil && a == nil {
		a = p.snapshotLocked()
	}
	return rec, e, a, p.wl.internal(), nil
}

// replayRecorded rebuilds the recorded graph from the accepted-edge
// replay, with no lock held (spilled log chunks are read back one at a
// time). The replay reproduces every edge and every connected vertex;
// degenerate inputs (self-loops, corrupt edges) may have interned
// isolated vertices in the live graph that the replay omits — they have
// no edges, so no workload pattern reaches them and every evaluation
// metric is unchanged.
func replayRecorded(rec graph.Replay) *graph.Graph {
	g := graph.New()
	err := rec.Each(func(e graph.StreamEdge) error {
		if _, err := g.EnsureEdge(e.U, e.LU, e.V, e.LV); err != nil {
			// The log holds only edges the recorded graph accepted;
			// replaying them cannot conflict.
			return fmt.Errorf("loom: corrupt accepted-edge log: %w", err)
		}
		return nil
	})
	if err != nil {
		panic(err.Error())
	}
	return g
}

// RefineStats reports an offline refinement run (see Refine).
type RefineStats struct {
	Passes    int
	Moves     int
	CutBefore float64 // workload-weighted edge cut before
	CutAfter  float64
}

// Refine runs the offline TAPER-style re-partitioning pass the paper
// proposes integrating with Loom (§6): vertices migrate between partitions
// when that reduces the workload-weighted edge cut, within the balance
// bound. It requires graph recording and a workload; the partitioner's
// assignment is updated in place conceptually — subsequent PartitionOf and
// Evaluate calls observe the refined placement, but the streaming state is
// finished: call only after Flush.
func (p *Partitioner) Refine(maxPasses int) (RefineStats, error) {
	p.mu.RLock()
	if p.g == nil {
		p.mu.RUnlock()
		return RefineStats{}, fmt.Errorf("loom: graph recording disabled; Refine unavailable")
	}
	if p.wl == nil || p.wl.Len() == 0 {
		p.mu.RUnlock()
		return RefineStats{}, fmt.Errorf("loom: no workload to refine against")
	}
	trie := p.trie
	if trie == nil {
		// Baselines carry a workload but no trie; build one.
		scheme := signature.NewScheme(p.opt.SignaturePrime, p.opt.Seed)
		t, err := p.wl.internal().BuildTrie(scheme)
		if err != nil {
			p.mu.RUnlock()
			return RefineStats{}, err
		}
		trie = t
	}
	// Refinement runs on an isolated snapshot of the graph and the
	// streamer's assignment, but it also reads the live trie — which a
	// concurrent AddQuery may mutate — so the read lock is held for the
	// whole pass: concurrent reads proceed, ingest mutations wait (Refine
	// is a post-Flush operation; there should be none). The result is
	// swapped in atomically below.
	g := p.g.Clone()
	a := p.streamer.Snapshot()
	obs := p.observedLocked()
	opt := p.opt
	refined, st, err := refine.Refine(g, a, trie, refine.Config{
		Capacity:  partition.CapacityFor(opt.ExpectedVertices, opt.Partitions, opt.MaxImbalance),
		MaxPasses: maxPasses,
	})
	p.mu.RUnlock()
	if err != nil {
		return RefineStats{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// The read lock was released between refining and installing; if a
	// producer ingested anything in that window — placed vertices, or
	// edges merely buffered in Ptemp whose endpoints a later Flush will
	// place — the refined assignment would silently hide them (p.refined
	// supersedes the streamer), so refuse instead: the caller re-runs once
	// ingest has actually quiesced.
	if cur := p.observedLocked(); cur != obs {
		return RefineStats{}, fmt.Errorf("loom: %d edges were ingested while Refine ran; re-run after ingest quiesces", cur-obs)
	}
	p.refined = refined
	p.publishLocked() // swap the lock-free read surface to the refined view
	return RefineStats{Passes: st.Passes, Moves: st.Moves, CutBefore: st.CutBefore, CutAfter: st.CutAfter}, nil
}

// observedLocked returns the streamer's observed-edge count — which
// advances on every non-degenerate ingest, including edges only buffered
// in the window — falling back to the assigned-vertex count for streamers
// without a tracker; p.mu must be held.
func (p *Partitioner) observedLocked() int {
	if p.tr != nil {
		return p.tr.ObservedEdges()
	}
	return p.streamer.Assignment().NumAssigned()
}

// Restream returns a fresh Loom partitioner that uses this partitioner's
// current assignment as a restreaming prior (§6 future work): replay the
// stream (in any order) through the returned partitioner and cold-start
// decisions will keep the localities discovered on the first pass. Only
// available for Loom partitioners.
func (p *Partitioner) Restream() (*Partitioner, error) {
	p.mu.RLock()
	if p.loom == nil {
		name := p.name
		p.mu.RUnlock()
		return nil, fmt.Errorf("loom: Restream requires a Loom partitioner, not %s", name)
	}
	opt := p.opt
	wl := p.wl
	iwl := wl.internal()
	// The prior is an isolated snapshot, so the returned partitioner never
	// races this one's still-growing vertex table.
	prior := p.snapshotLocked()
	p.mu.RUnlock()
	scheme := signature.NewScheme(opt.SignaturePrime, opt.Seed)
	trie, err := iwl.BuildTrie(scheme)
	if err != nil {
		return nil, err
	}
	lm, err := core.New(core.Config{
		K:                opt.Partitions,
		Capacity:         partition.CapacityFor(opt.ExpectedVertices, opt.Partitions, opt.MaxImbalance),
		WindowSize:       opt.WindowSize,
		SupportThreshold: opt.SupportThreshold,
		Alpha:            opt.Alpha,
		MaxImbalance:     opt.MaxImbalance,
		Workers:          opt.Workers,
		Prior:            prior,
	}, trie)
	if err != nil {
		return nil, err
	}
	np := &Partitioner{
		name: "loom", streamer: lm, tr: lm.Tracker(), loom: lm,
		trie: trie, wl: wl, opt: opt, baseQueries: wl.Len(),
	}
	// The restream partitioner must not share the original's spill
	// directory — its fresh edge log would overwrite the original's chunk
	// files — so its recorded graph stays in memory.
	memOpt := opt
	memOpt.SpillDir = ""
	if np.g, err = newRecordedGraph(memOpt); err != nil {
		return nil, err
	}
	return np, nil
}

// Simulation reports a simulated distributed execution of the workload
// (see Simulate).
type Simulation struct {
	// LocalHops and RemoteHops count intra- and inter-machine adjacency
	// traversals during workload execution.
	LocalHops, RemoteHops int
	// TotalCost is the frequency-weighted cost under the given model.
	TotalCost float64
	// MachineLoad is the number of traversal steps served per machine
	// (last slot: unassigned/Ptemp vertices).
	MachineLoad []int
}

// Simulate executes the workload over the recorded graph with an explicit
// distributed cost model: every adjacency step costs localCost on one
// machine and remoteCost across machines (0 values take the defaults
// 1 and 1000). This turns the paper's ipt proxy into a latency-flavoured
// estimate; see internal/simulate. The replay window is the same as
// Evaluate's: the full accepted-edge log, streamed chunk-at-a-time from
// disk when Options.SpillDir is set.
func (p *Partitioner) Simulate(localCost, remoteCost float64) (Simulation, error) {
	// Like Evaluate: O(1) capture under the read lock, replay and simulate
	// with no lock held.
	rec, e, a, iwl, err := p.captureEval("Simulate")
	if err != nil {
		return Simulation{}, err
	}
	if a == nil {
		a = e.Materialise()
	}
	g := replayRecorded(rec)
	res, err := simulate.Run(g, a, iwl,
		simulate.CostModel{LocalCost: localCost, RemoteCost: remoteCost}, 0)
	if err != nil {
		return Simulation{}, err
	}
	return Simulation{
		LocalHops:   res.LocalHops,
		RemoteHops:  res.RemoteHops,
		TotalCost:   res.TotalCost,
		MachineLoad: res.MachineLoad,
	}, nil
}

// GenerateDataset produces one of the paper's evaluation graphs ("dblp",
// "provgen", "musicbrainz", "lubm") as a stream in insertion order. scale
// is a target vertex count.
func GenerateDataset(name string, scale int, seed int64) ([]StreamEdge, error) {
	g, err := dataset.Generate(name, scale, seed)
	if err != nil {
		return nil, err
	}
	return toPublicStream(graph.StreamOf(g, graph.OrderOriginal, nil)), nil
}

// DatasetWorkload returns the canonical query workload for one of the
// paper's datasets.
func DatasetWorkload(name string) (*Workload, error) {
	iwl, err := workload.ForDataset(name)
	if err != nil {
		return nil, err
	}
	w := NewWorkload(iwl.Name)
	w.queries = iwl.Queries
	return w, nil
}

// OrderStream reorders a stream breadth-first ("bfs"), depth-first ("dfs")
// or uniformly at random ("random") — the three stream orders of the
// paper's evaluation (§5.1). The input must form a valid graph.
func OrderStream(edges []StreamEdge, order string, seed int64) ([]StreamEdge, error) {
	g := graph.New()
	for _, e := range edges {
		if _, err := g.EnsureEdge(graph.VertexID(e.U), graph.Label(e.LU), graph.VertexID(e.V), graph.Label(e.LV)); err != nil {
			return nil, err
		}
	}
	var o graph.StreamOrder
	switch order {
	case "bfs":
		o = graph.OrderBFS
	case "dfs":
		o = graph.OrderDFS
	case "random":
		o = graph.OrderRandom
	case "original":
		o = graph.OrderOriginal
	default:
		return nil, fmt.Errorf("loom: unknown stream order %q", order)
	}
	return toPublicStream(graph.StreamOf(g, o, rand.New(rand.NewSource(seed)))), nil
}

func toPublicStream(s graph.Stream) []StreamEdge {
	out := make([]StreamEdge, len(s))
	for i, e := range s {
		out[i] = StreamEdge{U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV)}
	}
	return out
}
