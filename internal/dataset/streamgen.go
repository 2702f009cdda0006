package dataset

import (
	"fmt"
	"math/rand"

	"loom/internal/graph"
)

// StreamSpec configures a constant-memory synthetic edge stream. Unlike
// the catalogue generators (which materialise a graph.Graph before
// streaming it), a StreamGen emits edges one at a time from O(1) state:
// vertex IDs and labels are computed arithmetically, never stored, so a
// 10⁸-edge stream costs the same generator memory as a 10³-edge one.
// At memory-footprint scale the recorded graph under test must be the
// only thing that grows.
type StreamSpec struct {
	// Mode selects the stream shape: "powerlaw" (skewed social-network-like
	// degree distribution) or "triples" (RDF-shaped: entity–entity links
	// plus entity→attribute stars, echoing the paper's LUBM/provenance
	// datasets).
	Mode string
	// Edges is the number of edges to emit.
	Edges int64
	// Vertices bounds the core vertex ID range [0, Vertices). Triples mode
	// additionally mints fresh attribute vertices above the bound.
	Vertices int64
	// Labels is the alphabet size |LV| (default 5, max intern.MaxLabels).
	Labels int
	// Skew is the Zipf exponent s > 1 for vertex selection (default 1.3;
	// closer to 1 is flatter).
	Skew float64
	// Seed makes the stream reproducible.
	Seed int64
}

// StreamGen emits a deterministic synthetic edge stream in O(1) memory.
// Not safe for concurrent use.
type StreamGen struct {
	spec    StreamSpec
	rng     *rand.Rand
	zipf    *rand.Zipf
	emitted int64
	nextAtt int64 // triples mode: next fresh attribute vertex ID
}

// NewStreamGen validates spec and returns a generator positioned at the
// first edge.
func NewStreamGen(spec StreamSpec) (*StreamGen, error) {
	if spec.Edges <= 0 {
		return nil, fmt.Errorf("dataset: stream spec needs Edges > 0")
	}
	if spec.Vertices < 2 {
		return nil, fmt.Errorf("dataset: stream spec needs Vertices >= 2")
	}
	if spec.Labels <= 0 {
		spec.Labels = 5
	}
	if spec.Skew == 0 {
		spec.Skew = 1.3
	}
	if spec.Skew <= 1 {
		return nil, fmt.Errorf("dataset: stream spec needs Skew > 1 (got %g)", spec.Skew)
	}
	switch spec.Mode {
	case "", "powerlaw":
		spec.Mode = "powerlaw"
	case "triples":
	default:
		return nil, fmt.Errorf("dataset: unknown stream mode %q (want powerlaw or triples)", spec.Mode)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	return &StreamGen{
		spec:    spec,
		rng:     rng,
		zipf:    rand.NewZipf(rng, spec.Skew, 1, uint64(spec.Vertices-1)),
		nextAtt: spec.Vertices,
	}, nil
}

// label returns the deterministic label of vertex v. A pure function of
// the ID, so the same vertex always streams with the same label — the
// recorded graph treats label conflicts as corruption.
func (g *StreamGen) label(v int64) string {
	if v >= g.spec.Vertices {
		return "Attr" // triples mode's minted attribute vertices
	}
	return string(rune('A' + int(v%int64(g.spec.Labels))))
}

// Remaining returns how many edges Next will still emit.
func (g *StreamGen) Remaining() int64 { return g.spec.Edges - g.emitted }

// Next returns the next stream edge; ok is false once Edges have been
// emitted. Self-loops occur naturally (two equal Zipf draws) — consumers
// of noisy streams are expected to tolerate them, and the partitioner
// drops them by contract.
func (g *StreamGen) Next() (e graph.StreamEdge, ok bool) {
	if g.emitted >= g.spec.Edges {
		return graph.StreamEdge{}, false
	}
	g.emitted++
	u := int64(g.zipf.Uint64())
	var v int64
	if g.spec.Mode == "triples" && g.rng.Intn(10) < 3 {
		// Entity→attribute star: a fresh leaf per emission, like RDF
		// literal/attribute triples. These never duplicate.
		v = g.nextAtt
		g.nextAtt++
	} else {
		v = int64(g.zipf.Uint64())
	}
	return graph.StreamEdge{
		U: graph.VertexID(u), LU: graph.Label(g.label(u)),
		V: graph.VertexID(v), LV: graph.Label(g.label(v)),
	}, true
}
