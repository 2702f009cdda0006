// Package signature implements the number-theoretic graph signatures of
// Loom §2.1–2.3, extending Song et al.'s event-pattern-matching signatures.
//
// Each label l ∈ LV is assigned a pseudo-random value r(l) ∈ [1, p) for a
// user-chosen prime p. A graph's signature is then the product of
//
//   - one edge factor per edge:    |r(l(u)) − r(l(v))| (mod p), and
//   - one degree factor per unit of degree: for a vertex v of degree n, the
//     factors ((r(l(v)) + 1) mod p) · … · ((r(l(v)) + n) mod p),
//
// with any zero factor replaced by p (footnote 3 of the paper), giving
// exactly 3|E| factors in total. Two isomorphic graphs always produce the
// same factors (no false negatives); two different graphs rarely do (§2.3
// quantifies the collision probability, reproduced in collision.go).
//
// Loom deviates from Song et al. in one crucial way (§2.3): signatures are
// kept as *multisets of factors* rather than their big-integer product,
// which removes the "two distinct factor sets share a product" collision
// class and lets the TPSTry++ label its edges with compact 3-factor deltas.
// The big-integer product is still available (Product) for tests and to
// reproduce the paper's worked examples.
package signature

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sort"

	"loom/internal/graph"
	"loom/internal/wal"
)

// DefaultP is the prime modulus Loom uses when identifying and matching
// motifs (§2.3: "we use a p value of 251").
const DefaultP = 251

// Factor is a single signature factor, a value in [1, p] (p stands in for
// zero).
type Factor uint32

// Delta is the multiset of exactly three factors contributed by adding one
// edge to a graph: the edge factor plus one new degree factor per endpoint
// (each endpoint's degree grows by one). Deltas are stored sorted so they
// are directly comparable and usable as map keys (TPSTry++ edge labels).
type Delta [3]Factor

// sortDelta returns d with its factors in ascending order.
func sortDelta(d Delta) Delta {
	if d[0] > d[1] {
		d[0], d[1] = d[1], d[0]
	}
	if d[1] > d[2] {
		d[1], d[2] = d[2], d[1]
	}
	if d[0] > d[1] {
		d[0], d[1] = d[1], d[0]
	}
	return d
}

func (d Delta) String() string { return fmt.Sprintf("Δ%v", [3]Factor(d)) }

// Scheme holds the prime p and the per-label random values r(l). A Scheme
// is deterministic for a given (p, seed) pair: label values are drawn from
// a seeded generator in first-use order, and datasets/workloads register
// labels in a fixed order, so runs are reproducible.
//
// Scheme is not safe for concurrent use; Loom's pipeline is single-threaded
// by design (§6).
type Scheme struct {
	p     uint32
	seed  int64
	rng   *rand.Rand
	draws int // values drawn from rng so far (see AppendState)
	rvals map[graph.Label]uint32
}

// NewScheme returns a Scheme with prime modulus p, assigning label values
// from a generator seeded with seed. p must be at least 3; the library does
// not verify primality (the paper's analysis assumes a prime, and callers
// use published primes such as 251, 11, 317).
func NewScheme(p uint32, seed int64) *Scheme {
	if p < 3 {
		panic(fmt.Sprintf("signature: modulus p must be >= 3, got %d", p))
	}
	return &Scheme{
		p:     p,
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		rvals: make(map[graph.Label]uint32),
	}
}

// NewSchemeWithValues returns a Scheme with explicit label values, used by
// tests to reproduce the paper's worked examples (p = 11, r(a) = 3,
// r(b) = 10). Values must lie in [1, p).
func NewSchemeWithValues(p uint32, values map[graph.Label]uint32) *Scheme {
	s := NewScheme(p, 0)
	for l, v := range values {
		if v < 1 || v >= p {
			panic(fmt.Sprintf("signature: label value %d out of range [1,%d)", v, p))
		}
		s.rvals[l] = v
	}
	return s
}

// P returns the scheme's modulus.
func (s *Scheme) P() uint32 { return s.p }

// LabelValue returns r(l), assigning a fresh pseudo-random value in [1, p)
// on first use.
func (s *Scheme) LabelValue(l graph.Label) uint32 {
	if v, ok := s.rvals[l]; ok {
		return v
	}
	v := uint32(s.rng.Intn(int(s.p-1))) + 1 // [1, p)
	s.draws++
	s.rvals[l] = v
	return v
}

// AppendState writes the scheme's checkpoint section: every assigned
// r(l), by sorted label for a deterministic encoding, then the generator
// position. r-values are drawn in first-use order, so the assignment
// depends on the label arrival history, not just (p, seed) — a Scheme
// rebuilt from the same workload but a different stream prefix gives
// different values to stream-only labels. The draw count lets restore
// fast-forward the generator so labels first seen *after* the checkpoint
// also draw the values the uninterrupted run would have drawn.
func (s *Scheme) AppendState(e *wal.Enc) {
	labels := make([]graph.Label, 0, len(s.rvals))
	for l := range s.rvals {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	e.U32(uint32(len(labels)))
	for _, l := range labels {
		e.Str(string(l))
		e.U32(s.rvals[l])
	}
	e.U32(uint32(s.draws))
}

// RestoreState replaces the scheme's label values and generator position
// with an AppendState section. The scheme must have been built with the
// same (p, seed) as the encoded one; values are validated against [1, p).
// A rejected section leaves the scheme as it was.
func (s *Scheme) RestoreState(d *wal.Dec) error {
	n := d.Len(5)
	rvals := make(map[graph.Label]uint32, n)
	for i := 0; i < n; i++ {
		l, v := graph.Label(d.Str()), d.U32()
		if v < 1 || v >= s.p {
			return fmt.Errorf("signature: label %q value %d out of range [1,%d)", l, v, s.p)
		}
		if _, dup := rvals[l]; dup {
			return fmt.Errorf("signature: duplicate label %q", l)
		}
		rvals[l] = v
	}
	// Every draw assigns one label its value, so a draw count past the
	// label count is corrupt — and would fast-forward the generator
	// through up to 2^32 values.
	draws := int(d.U32())
	if draws > n {
		return fmt.Errorf("signature: draw count %d outside [0, %d labels]", draws, n)
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.rng = rand.New(rand.NewSource(s.seed))
	for i := 0; i < draws; i++ {
		s.rng.Intn(int(s.p - 1))
	}
	s.draws = draws
	s.rvals = rvals
	return nil
}

// nonzero maps a residue in [0, p) to a valid factor in [1, p], replacing 0
// by p per the paper's footnote 3.
func (s *Scheme) nonzero(x uint32) Factor {
	if x == 0 {
		return Factor(s.p)
	}
	return Factor(x)
}

// EdgeFactor returns the factor for an undirected edge between labels lu
// and lv: |r(lu) − r(lv)| with 0 replaced by p. Absolute difference makes
// the subtraction order "consistent" as §2.1 requires, and reproduces the
// paper's worked example ((3, 10) mod 11 → 7).
func (s *Scheme) EdgeFactor(lu, lv graph.Label) Factor {
	a, b := s.LabelValue(lu), s.LabelValue(lv)
	if a < b {
		a, b = b, a
	}
	return s.nonzero((a - b) % s.p)
}

// DirectedEdgeFactor returns the factor for a directed edge src→dst:
// (r(src) − r(dst)) mod p, per the paper's inline note that "the random
// value for the target vertex's label is subtracted from the random value
// for the source vertex's label".
func (s *Scheme) DirectedEdgeFactor(src, dst graph.Label) Factor {
	a, b := s.LabelValue(src), s.LabelValue(dst)
	return s.nonzero((a + s.p - b) % s.p)
}

// DegreeFactor returns the i-th degree factor of a vertex labelled l, i.e.
// the factor contributed when the vertex's degree reaches i (i ≥ 1):
// ((r(l) + i) mod p), 0 → p.
func (s *Scheme) DegreeFactor(l graph.Label, i int) Factor {
	if i < 1 {
		panic(fmt.Sprintf("signature: degree index must be >= 1, got %d", i))
	}
	return s.nonzero(uint32((uint64(s.LabelValue(l)) + uint64(i)) % uint64(s.p)))
}

// EdgeDelta returns the three factors contributed by adding an edge between
// a vertex labelled lu whose degree (within the sub-graph being grown) was
// du before the addition, and one labelled lv with prior degree dv. This is
// the incremental computation §2.1 highlights: the signature of G can be
// derived from the signature of any sub-graph Gi plus the factors due to
// the additional edges and degree in G \ Gi.
func (s *Scheme) EdgeDelta(lu graph.Label, du int, lv graph.Label, dv int) Delta {
	return sortDelta(Delta{
		s.EdgeFactor(lu, lv),
		s.DegreeFactor(lu, du+1),
		s.DegreeFactor(lv, dv+1),
	})
}

// EdgeFactorVals is EdgeFactor over pre-resolved label values ru = r(lu),
// rv = r(lv) (both in [1, p)). Hot paths that intern labels cache r-values
// by label code and call the *Vals variants to keep the per-edge path free
// of string hashing. Both values lie below p, so the residue needs no
// division: |ru − rv| is already in [0, p).
func (s *Scheme) EdgeFactorVals(ru, rv uint32) Factor {
	if ru < rv {
		ru, rv = rv, ru
	}
	return s.nonzero(ru - rv)
}

// DegreeFactorVal is DegreeFactor over a pre-resolved label value rv = r(l).
// For the common case i < p the sum rv + i is below 2p and one conditional
// subtraction replaces the division (this sits under every Alg. 2 delta).
func (s *Scheme) DegreeFactorVal(rv uint32, i int) Factor {
	if i < 1 {
		panic(fmt.Sprintf("signature: degree index must be >= 1, got %d", i))
	}
	if uint64(i) < uint64(s.p) {
		// rv < p, i < p ⇒ rv+i < 2p: at most one subtract. Summed in
		// uint64 so moduli above 2^31 cannot wrap the addition.
		v := uint64(rv) + uint64(i)
		if v >= uint64(s.p) {
			v -= uint64(s.p)
		}
		return s.nonzero(uint32(v))
	}
	return s.nonzero(uint32((uint64(rv) + uint64(i)) % uint64(s.p)))
}

// EdgeDeltaVals is EdgeDelta over pre-resolved label values ru = r(lu),
// rv = r(lv): the allocation- and hash-free hot-path form used by the
// sliding window's incremental matcher.
func (s *Scheme) EdgeDeltaVals(ru uint32, du int, rv uint32, dv int) Delta {
	return sortDelta(Delta{
		s.EdgeFactorVals(ru, rv),
		s.DegreeFactorVal(ru, du+1),
		s.DegreeFactorVal(rv, dv+1),
	})
}

// SignatureOf computes the full factor multiset of g from scratch. For
// undirected graphs this is |E| edge factors plus Σ deg(v) = 2|E| degree
// factors.
func (s *Scheme) SignatureOf(g *graph.Graph) *Multiset {
	ms := NewMultiset()
	for _, e := range g.Edges() {
		lu, lv := g.EdgeLabels(e)
		if g.Directed() {
			ms.Add(s.DirectedEdgeFactor(lu, lv))
		} else {
			ms.Add(s.EdgeFactor(lu, lv))
		}
	}
	for _, v := range g.Vertices() {
		l := g.MustLabel(v)
		deg := g.Degree(v)
		if g.Directed() {
			deg += len(g.InNeighbors(v))
		}
		for i := 1; i <= deg; i++ {
			ms.Add(s.DegreeFactor(l, i))
		}
	}
	return ms
}

// Product returns the big-integer product of a factor multiset — the
// signature representation of Song et al., exercised by tests against the
// paper's worked examples (§2.1: signature(q1) = 116208400).
func Product(ms *Multiset) *big.Int {
	out := big.NewInt(1)
	tmp := new(big.Int)
	for _, f := range ms.Factors() {
		tmp.SetUint64(uint64(f))
		out.Mul(out, tmp)
	}
	return out
}

// LabelValues returns a copy of the currently assigned label values, sorted
// by label, for diagnostics.
func (s *Scheme) LabelValues() map[graph.Label]uint32 {
	out := make(map[graph.Label]uint32, len(s.rvals))
	for l, v := range s.rvals {
		out[l] = v
	}
	return out
}

// RegisterLabels assigns values to the given labels in order. Generators
// call this up front so that label values do not depend on stream order.
func (s *Scheme) RegisterLabels(labels []graph.Label) {
	ordered := append([]graph.Label(nil), labels...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, l := range ordered {
		s.LabelValue(l)
	}
}
