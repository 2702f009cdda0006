// Package dataset provides synthetic generators for the five evaluation
// graphs of the Loom paper (Table 1) plus edge-list IO.
//
// The paper evaluates on two real datasets (DBLP, MusicBrainz) and three
// synthetic ones (ProvGen, LUBM-100, LUBM-4000). The real dumps are not
// redistributable here, so each is replaced by a generator that preserves
// the properties the experiments depend on:
//
//   - label heterogeneity |LV| (8 for DBLP, 3 for ProvGen, 12 for
//     MusicBrainz, 15 for LUBM) — the axis §5.2 identifies as driving
//     Loom's advantage;
//   - skewed degree distributions (preferential attachment for citations,
//     collaborations, label signings);
//   - community/locality structure (papers cluster around venues and
//     authors; LUBM is department-partitioned by construction);
//   - edge/vertex ratios in the neighbourhood of Table 1's.
//
// Scale is a target vertex count; generators derive entity counts from it.
// All generators are deterministic for a (scale, seed) pair.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"loom/internal/graph"
)

// Info describes one generated dataset, mirroring a Table 1 row.
type Info struct {
	Name   string
	Labels int  // |LV|
	Real   bool // whether the paper's original was a real-world dump
	// PaperVertices/PaperEdges are the approximate sizes reported in
	// Table 1 (for EXPERIMENTS.md comparisons).
	PaperVertices int
	PaperEdges    int
	Description   string
}

// Catalog lists the paper's datasets in Table 1 order.
func Catalog() []Info {
	return []Info{
		{Name: "dblp", Labels: 8, Real: true, PaperVertices: 1_200_000, PaperEdges: 2_500_000, Description: "Publications & citations"},
		{Name: "provgen", Labels: 3, Real: false, PaperVertices: 500_000, PaperEdges: 900_000, Description: "Wiki page provenance"},
		{Name: "musicbrainz", Labels: 12, Real: true, PaperVertices: 31_000_000, PaperEdges: 100_000_000, Description: "Music records metadata"},
		{Name: "lubm", Labels: 15, Real: false, PaperVertices: 2_600_000, PaperEdges: 11_000_000, Description: "University records (LUBM-100)"},
		{Name: "lubm-large", Labels: 15, Real: false, PaperVertices: 131_000_000, PaperEdges: 534_000_000, Description: "University records (LUBM-4000)"},
	}
}

// Generate builds the named dataset at the given scale (target vertex
// count).
func Generate(name string, scale int, seed int64) (*graph.Graph, error) {
	switch name {
	case "dblp":
		return DBLP(scale, seed), nil
	case "provgen":
		return ProvGen(scale, seed), nil
	case "musicbrainz":
		return MusicBrainz(scale, seed), nil
	case "lubm", "lubm-large":
		return LUBM(scale, seed), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q", name)
	}
}

// builder wraps a graph with an ID counter and panic-free edge insertion
// (generators construct by design; label conflicts are bugs).
type builder struct {
	g    *graph.Graph
	next graph.VertexID
	rng  *rand.Rand
}

func newBuilder(seed int64) *builder {
	return &builder{g: graph.New(), next: 1, rng: rand.New(rand.NewSource(seed))}
}

func (b *builder) vertex(l graph.Label) graph.VertexID {
	id := b.next
	b.next++
	if err := b.g.AddVertex(id, l); err != nil {
		panic(err)
	}
	return id
}

func (b *builder) edge(u, v graph.VertexID) {
	if u == v {
		return
	}
	if b.g.HasEdge(u, v) {
		return
	}
	if err := b.g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// pick returns a uniformly random element of pool.
func (b *builder) pick(pool []graph.VertexID) graph.VertexID {
	return pool[b.rng.Intn(len(pool))]
}

// preferential picks from a pool where element i was appended in arrival
// order, with linear preferential attachment approximated by sampling two
// uniform indexes and taking the smaller (earlier elements accumulate
// degree in these generators, so earlier ≈ higher degree). This matches the
// heavy-tailed citation/collaboration distributions of the real data at a
// fraction of the bookkeeping cost.
func (b *builder) preferential(pool []graph.VertexID) graph.VertexID {
	i, j := b.rng.Intn(len(pool)), b.rng.Intn(len(pool))
	if j < i {
		i = j
	}
	return pool[i]
}

// Labels used across generators, grouped per dataset.
const (
	// DBLP (8 labels)
	LPaper       graph.Label = "Paper"
	LPerson      graph.Label = "Person"
	LVenue       graph.Label = "Venue"
	LJournal     graph.Label = "Journal"
	LYear        graph.Label = "Year"
	LTopic       graph.Label = "Topic"
	LInstitution graph.Label = "Institution"
	LPublisher   graph.Label = "Publisher"

	// ProvGen (3 labels, PROV-DM)
	LEntity   graph.Label = "Entity"
	LActivity graph.Label = "Activity"
	LAgent    graph.Label = "Agent"

	// MusicBrainz (12 labels)
	LArtist    graph.Label = "Artist"
	LAlbum     graph.Label = "Album"
	LTrack     graph.Label = "Track"
	LRecording graph.Label = "Recording"
	LWork      graph.Label = "Work"
	LLabel     graph.Label = "Label"
	LArea      graph.Label = "Area"
	LGenre     graph.Label = "Genre"
	LRelease   graph.Label = "Release"
	LEvent     graph.Label = "Event"
	LPlace     graph.Label = "Place"
	LSeries    graph.Label = "Series"

	// LUBM (15 labels)
	LUniversity    graph.Label = "University"
	LDepartment    graph.Label = "Department"
	LFullProf      graph.Label = "FullProfessor"
	LAssocProf     graph.Label = "AssociateProfessor"
	LAsstProf      graph.Label = "AssistantProfessor"
	LLecturer      graph.Label = "Lecturer"
	LUndergrad     graph.Label = "UndergraduateStudent"
	LGradStudent   graph.Label = "GraduateStudent"
	LCourse        graph.Label = "Course"
	LGradCourse    graph.Label = "GraduateCourse"
	LPublication   graph.Label = "Publication"
	LResearchGroup graph.Label = "ResearchGroup"
	LTA            graph.Label = "TeachingAssistant"
	LRA            graph.Label = "ResearchAssistant"
	LChair         graph.Label = "Chair"
)

// DatasetLabels returns the label alphabet of a dataset, sorted (used to
// pre-register labels with a signature scheme so runs are stream-order
// independent).
func DatasetLabels(name string) []graph.Label {
	var ls []graph.Label
	switch name {
	case "dblp":
		ls = []graph.Label{LPaper, LPerson, LVenue, LJournal, LYear, LTopic, LInstitution, LPublisher}
	case "provgen":
		ls = []graph.Label{LEntity, LActivity, LAgent}
	case "musicbrainz":
		ls = []graph.Label{LArtist, LAlbum, LTrack, LRecording, LWork, LLabel, LArea, LGenre, LRelease, LEvent, LPlace, LSeries}
	case "lubm", "lubm-large":
		ls = []graph.Label{LUniversity, LDepartment, LFullProf, LAssocProf, LAsstProf, LLecturer, LUndergrad, LGradStudent, LCourse, LGradCourse, LPublication, LResearchGroup, LTA, LRA, LChair}
	}
	sorted := append([]graph.Label(nil), ls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}
