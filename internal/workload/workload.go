// Package workload models query workloads (§1.3: a multiset of pattern
// matching queries with relative frequencies) and executes them over
// partitioned graphs, counting the inter-partition traversals (ipt) that
// define partitioning quality throughout the paper's evaluation.
//
// Execution takes one of two paths per query. A labelled path of 2 or 3
// edges is scored in closed form from label-filtered neighbour counts
// (count.go); every other shape, the traversal cost model, directed
// graphs and a path with as many matches as the cap go through the
// pattern enumerator, which deduplicates every embedding into a distinct
// match. Both paths report the same matches and crossings.
//
// The workloads follow Fig. 6 and §5.1.2: for LUBM, patterns modelled on the
// benchmark's provided queries; for every other dataset, "a small set of
// common-sense queries which focus on discovering implicit relationships in
// the graph, such as potential collaboration between authors or artists".
package workload

import (
	"fmt"

	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/pattern"
	"loom/internal/signature"
	"loom/internal/tpstry"
)

// Query is one pattern with its relative frequency in the workload.
type Query struct {
	Name    string
	Pattern *graph.Graph
	Freq    float64
}

// Workload is a named multiset of queries Q = {(q1,n1) … (qh,nh)}.
type Workload struct {
	Name    string
	Queries []Query
}

// TotalFreq returns the sum of query frequencies (the support normaliser).
func (w Workload) TotalFreq() float64 {
	t := 0.0
	for _, q := range w.Queries {
		t += q.Freq
	}
	return t
}

// Validate checks that the workload is non-empty with positive frequencies
// and connected patterns.
func (w Workload) Validate() error {
	if len(w.Queries) == 0 {
		return fmt.Errorf("workload %q: no queries", w.Name)
	}
	for _, q := range w.Queries {
		if q.Freq <= 0 {
			return fmt.Errorf("workload %q: query %q has non-positive frequency", w.Name, q.Name)
		}
		if q.Pattern.NumEdges() == 0 {
			return fmt.Errorf("workload %q: query %q has no edges", w.Name, q.Name)
		}
		if !graph.IsConnected(q.Pattern) {
			return fmt.Errorf("workload %q: query %q is disconnected", w.Name, q.Name)
		}
	}
	return nil
}

// BuildTrie constructs the TPSTry++ for the workload over the given
// signature scheme.
func (w Workload) BuildTrie(scheme *signature.Scheme) (*tpstry.Trie, error) {
	trie := tpstry.New(scheme)
	for _, q := range w.Queries {
		if err := trie.AddQuery(q.Pattern, q.Freq); err != nil {
			return nil, fmt.Errorf("workload %q: query %q: %w", w.Name, q.Name, err)
		}
	}
	return trie, nil
}

// ForDataset returns the canonical workload for one of the paper's
// datasets.
func ForDataset(name string) (Workload, error) {
	switch name {
	case "dblp":
		return DBLPWorkload(), nil
	case "provgen":
		return ProvGenWorkload(), nil
	case "musicbrainz":
		return MusicBrainzWorkload(), nil
	case "lubm", "lubm-large":
		return LUBMWorkload(), nil
	default:
		return Workload{}, fmt.Errorf("workload: unknown dataset %q", name)
	}
}

// DBLPWorkload mirrors Fig. 6's DBLP example (Person–Paper–Person with a
// citing Paper) plus common-sense co-authorship and venue queries.
func DBLPWorkload() Workload {
	return Workload{
		Name: "dblp",
		Queries: []Query{
			{
				// Co-authors: Person–Paper–Person. The dominant query,
				// whose 2-edge pattern is a motif at T = 40% — the
				// workload skew Loom exploits (§5.1.1).
				Name:    "coauthors",
				Pattern: pattern.Path(dataset.LPerson, dataset.LPaper, dataset.LPerson),
				Freq:    0.35,
			},
			{
				// Fig. 6 (DBLP): two persons linked by papers where one
				// paper cites the other — potential collaboration.
				Name: "potential-collaboration",
				Pattern: pattern.FromEdges(
					pattern.LabelledEdge{U: 1, LU: dataset.LPerson, V: 2, LV: dataset.LPaper},
					pattern.LabelledEdge{U: 2, LU: dataset.LPaper, V: 3, LV: dataset.LPaper},
					pattern.LabelledEdge{U: 3, LU: dataset.LPaper, V: 4, LV: dataset.LPerson},
				),
				Freq: 0.40,
			},
			{
				// Citation chain.
				Name:    "citation-chain",
				Pattern: pattern.Path(dataset.LPaper, dataset.LPaper, dataset.LPaper),
				Freq:    0.15,
			},
			{
				// Venue co-location: authors publishing at the same venue.
				Name:    "venue-community",
				Pattern: pattern.Path(dataset.LPerson, dataset.LPaper, dataset.LVenue),
				Freq:    0.10,
			},
		},
	}
}

// ProvGenWorkload mirrors Fig. 6's ProvGen example (Entity–Activity–Entity)
// plus common PROV lineage queries [5].
func ProvGenWorkload() Workload {
	return Workload{
		Name: "provgen",
		Queries: []Query{
			{
				// Fig. 6 (ProvGen): derivation step through an activity.
				Name:    "derivation-step",
				Pattern: pattern.Path(dataset.LEntity, dataset.LActivity, dataset.LEntity),
				Freq:    0.45,
			},
			{
				// Two-hop derivation chain (regular path query over
				// wasDerivedFrom edges).
				Name:    "derivation-chain",
				Pattern: pattern.Path(dataset.LEntity, dataset.LEntity, dataset.LEntity),
				Freq:    0.25,
			},
			{
				// Responsibility: which agent drove the activity that
				// produced this entity.
				Name:    "attribution",
				Pattern: pattern.Path(dataset.LEntity, dataset.LActivity, dataset.LAgent),
				Freq:    0.20,
			},
			{
				// Same agent across consecutive revisions.
				Name: "agent-continuity",
				Pattern: pattern.FromEdges(
					pattern.LabelledEdge{U: 1, LU: dataset.LActivity, V: 2, LV: dataset.LAgent},
					pattern.LabelledEdge{U: 3, LU: dataset.LActivity, V: 2, LV: dataset.LAgent},
				),
				Freq: 0.10,
			},
		},
	}
}

// MusicBrainzWorkload mirrors Fig. 6's MusicBrainz example (Artist–Label /
// Artist–Area structure) plus artist-collaboration discovery.
func MusicBrainzWorkload() Workload {
	return Workload{
		Name: "musicbrainz",
		Queries: []Query{
			{
				// Collaboration: two artists on one album — the dominant
				// query, whose 2-edge pattern is a motif at T = 40%.
				Name:    "album-collaboration",
				Pattern: pattern.Path(dataset.LArtist, dataset.LAlbum, dataset.LArtist),
				Freq:    0.45,
			},
			{
				// Covers: recordings of the same work.
				Name:    "covers",
				Pattern: pattern.Path(dataset.LRecording, dataset.LWork, dataset.LRecording),
				Freq:    0.25,
			},
			{
				// Fig. 6 (MusicBrainz): artists sharing a label.
				Name:    "label-mates",
				Pattern: pattern.Path(dataset.LArtist, dataset.LLabel, dataset.LArtist),
				Freq:    0.20,
			},
			{
				// Scene: artists from the same area.
				Name:    "local-scene",
				Pattern: pattern.Path(dataset.LArtist, dataset.LArea, dataset.LArtist),
				Freq:    0.10,
			},
		},
	}
}

// LUBMWorkload models the benchmark's provided query mix (§5.1.2: "the LUBM
// dataset provides a set of query patterns which we make use of") at the
// pattern shapes expressible over the undirected labelled graph.
func LUBMWorkload() Workload {
	return Workload{
		Name: "lubm",
		Queries: []Query{
			{
				// LUBM Q1-like: graduate students taking a course from
				// their department's professor.
				Name:    "student-course-prof",
				Pattern: pattern.Path(dataset.LGradStudent, dataset.LGradCourse, dataset.LFullProf),
				Freq:    0.30,
			},
			{
				// LUBM Q2-like: co-authorship of professor and student.
				Name:    "coauthored-publication",
				Pattern: pattern.Path(dataset.LFullProf, dataset.LPublication, dataset.LGradStudent),
				Freq:    0.25,
			},
			{
				// Classmates: two undergraduates sharing a course.
				Name:    "classmates",
				Pattern: pattern.Path(dataset.LUndergrad, dataset.LCourse, dataset.LUndergrad),
				Freq:    0.25,
			},
			{
				// Advisor triangle: student advised by a professor whose
				// publication the student co-authored.
				Name: "advisor-coauthor",
				Pattern: pattern.FromEdges(
					pattern.LabelledEdge{U: 1, LU: dataset.LGradStudent, V: 2, LV: dataset.LFullProf},
					pattern.LabelledEdge{U: 2, LU: dataset.LFullProf, V: 3, LV: dataset.LPublication},
					pattern.LabelledEdge{U: 3, LU: dataset.LPublication, V: 1, LV: dataset.LGradStudent},
				),
				Freq: 0.20,
			},
		},
	}
}
