package partition

import (
	"math"
)

import "loom/internal/graph"

// ---------------------------------------------------------------------------
// Hash
// ---------------------------------------------------------------------------

// Hash is the naive baseline: vertices are assigned by a hash of their ID,
// "the default partitioner used by many existing partitioned graph
// databases" (§5.1). It ignores structure entirely and anchors the relative
// ipt scale of Figs. 7 and 8 (every other system is reported as % of Hash).
type Hash struct {
	t *Tracker
}

// NewHash returns a Hash partitioner over k partitions. Hash needs no
// capacity: its placement is balanced in expectation, so the tracker's
// capacity is never consulted for scoring (a nominal one is still required
// by the tracker).
func NewHash(k int, capacity float64) *Hash {
	return &Hash{t: NewTracker(k, capacity)}
}

// Name implements Streamer.
func (h *Hash) Name() string { return "hash" }

// ProcessEdge implements Streamer: each unseen endpoint is hashed to a
// partition.
func (h *Hash) ProcessEdge(e graph.StreamEdge) {
	ui, vi := h.t.ObserveStream(e)
	if h.t.PartOfIdx(ui) == Unassigned {
		h.t.AssignIdx(ui, ID(fnvHash(e.U)%uint64(h.t.K())))
	}
	if h.t.PartOfIdx(vi) == Unassigned {
		h.t.AssignIdx(vi, ID(fnvHash(e.V)%uint64(h.t.K())))
	}
}

// ProcessEdges implements Streamer: batch ingest, identical placements to
// per-edge ProcessEdge.
func (h *Hash) ProcessEdges(batch []graph.StreamEdge) {
	for _, e := range batch {
		h.ProcessEdge(e)
	}
}

// Flush implements Streamer (no-op: Hash holds no state).
func (h *Hash) Flush() {}

// Assignment implements Streamer.
func (h *Hash) Assignment() *Assignment { return h.t.Assignment() }

// Tracker implements Streamer.
func (h *Hash) Tracker() *Tracker { return h.t }

// ---------------------------------------------------------------------------
// LDG — Linear Deterministic Greedy (Stanton & Kliot, KDD 2012)
// ---------------------------------------------------------------------------

// LDG assigns each vertex "to the partition where it has the most
// neighbours, but penalises that number of neighbours for each partition by
// how full it is" (§1.2): argmax_Si N(Si, v)·(1 − |V(Si)|/C).
type LDG struct {
	t *Tracker
}

// NewLDG returns an LDG partitioner with k partitions and capacity C
// (typically CapacityFor(n, k, ν)).
func NewLDG(k int, capacity float64) *LDG {
	return &LDG{t: NewTracker(k, capacity)}
}

// Name implements Streamer.
func (l *LDG) Name() string { return "ldg" }

// ProcessEdge implements Streamer: unassigned endpoints are placed with the
// LDG rule against the adjacency observed so far.
func (l *LDG) ProcessEdge(e graph.StreamEdge) {
	ui, vi := l.t.ObserveStream(e)
	if l.t.PartOfIdx(ui) == Unassigned {
		l.t.AssignLDGIdx(ui)
	}
	if l.t.PartOfIdx(vi) == Unassigned {
		l.t.AssignLDGIdx(vi)
	}
}

// ProcessEdges implements Streamer: batch ingest, identical placements to
// per-edge ProcessEdge.
func (l *LDG) ProcessEdges(batch []graph.StreamEdge) {
	for _, e := range batch {
		l.ProcessEdge(e)
	}
}

// Flush implements Streamer (no-op: LDG assigns eagerly).
func (l *LDG) Flush() {}

// Assignment implements Streamer.
func (l *LDG) Assignment() *Assignment { return l.t.Assignment() }

// Tracker implements Streamer.
func (l *LDG) Tracker() *Tracker { return l.t }

// ---------------------------------------------------------------------------
// Fennel (Tsourakakis et al., WSDM 2014)
// ---------------------------------------------------------------------------

// FennelGamma is the γ exponent of Fennel's cost function; the paper uses
// the authors' recommended γ = 1.5 throughout (§5.1).
const FennelGamma = 1.5

// Fennel interpolates between neighbourhood attraction and a superlinear
// size penalty: a vertex v goes to argmax_Si |N(v) ∩ Si| − α·γ·|Si|^(γ−1),
// subject to the hard balance constraint |Si| < ν·n/k. α is the standard
// m·k^(γ−1)/n^γ.
type Fennel struct {
	t     *Tracker
	alpha float64
	gamma float64
}

// NewFennel returns a Fennel partitioner for k partitions with the given
// expected vertex and edge counts (used to derive α and the capacity
// ν·n/k with ν = DefaultImbalance).
func NewFennel(k, expectedVertices, expectedEdges int) *Fennel {
	return NewFennelSlack(k, expectedVertices, expectedEdges, DefaultImbalance)
}

// NewFennelSlack is NewFennel with the balance slack ν of the capacity
// ν·n/k given explicitly.
func NewFennelSlack(k, expectedVertices, expectedEdges int, slack float64) *Fennel {
	n := float64(expectedVertices)
	m := float64(expectedEdges)
	if n < 1 {
		n = 1
	}
	alpha := m * math.Pow(float64(k), FennelGamma-1) / math.Pow(n, FennelGamma)
	return &Fennel{
		t:     NewTracker(k, CapacityFor(expectedVertices, k, slack)),
		alpha: alpha,
		gamma: FennelGamma,
	}
}

// Name implements Streamer.
func (f *Fennel) Name() string { return "fennel" }

// ProcessEdge implements Streamer.
func (f *Fennel) ProcessEdge(e graph.StreamEdge) {
	ui, vi := f.t.ObserveStream(e)
	if f.t.PartOfIdx(ui) == Unassigned {
		f.assign(ui)
	}
	if f.t.PartOfIdx(vi) == Unassigned {
		f.assign(vi)
	}
}

func (f *Fennel) assign(vi uint32) {
	counts := f.t.NeighborCountsIdx(vi)
	best := Unassigned
	bestScore := math.Inf(-1)
	for p := 0; p < f.t.K(); p++ {
		size := float64(f.t.Size(ID(p)))
		if size+1 > f.t.Capacity() {
			continue // hard balance constraint ν·n/k
		}
		score := float64(counts[p]) - f.alpha*f.gamma*math.Pow(size, f.gamma-1)
		if score > bestScore || (score == bestScore && best != Unassigned && f.t.Size(ID(p)) < f.t.Size(best)) {
			best, bestScore = ID(p), score
		}
	}
	if best == Unassigned {
		best = f.t.LeastLoaded() // every partition at capacity: overflow to smallest
	}
	f.t.AssignIdx(vi, best)
}

// ProcessEdges implements Streamer: batch ingest, identical placements to
// per-edge ProcessEdge.
func (f *Fennel) ProcessEdges(batch []graph.StreamEdge) {
	for _, e := range batch {
		f.ProcessEdge(e)
	}
}

// Flush implements Streamer (no-op).
func (f *Fennel) Flush() {}

// Assignment implements Streamer.
func (f *Fennel) Assignment() *Assignment { return f.t.Assignment() }

// Tracker implements Streamer.
func (f *Fennel) Tracker() *Tracker { return f.t }

// Alpha returns the derived α parameter (for tests and diagnostics).
func (f *Fennel) Alpha() float64 { return f.alpha }
