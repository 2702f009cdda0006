package workload

import (
	"fmt"
	"sort"

	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/pattern"
)

// CostModel selects how inter-partition traversals are counted when a
// workload executes over a partitioning.
type CostModel int

const (
	// EmbeddingCrossings counts, for every distinct matched sub-graph of
	// every query, the number of its edges whose endpoints live in
	// different partitions, weighted by query frequency. This is the
	// implementation-independent reading of §5's ipt: each cut edge of a
	// result must be traversed across machines to assemble the match.
	// Unassigned vertices (partition.Unassigned, -1) compare unequal to
	// every real partition and equal to each other, so an edge into the
	// window partition Ptemp (§3) crosses and an edge inside it does not.
	EmbeddingCrossings CostModel = iota
	// TraversalCrossings instruments the matcher's actual exploration:
	// every adjacency step it takes from vertex u to v with different
	// partitions costs one ipt, including steps on partial matches that
	// later fail. Closer to a real engine's behaviour, but dependent on
	// the matcher's candidate order; Figs. 7–9 use EmbeddingCrossings.
	TraversalCrossings
)

// Options configures workload execution.
type Options struct {
	// Model picks the ipt cost model (default EmbeddingCrossings).
	Model CostModel
	// MaxMatchesPerQuery caps enumeration per query; 0 means the default
	// of 2_000_000. The cap is deterministic for a given graph, so all
	// partitioners are scored on the same match set.
	MaxMatchesPerQuery int
}

// QueryStats reports one query's execution over a partitioning.
type QueryStats struct {
	Name string
	// Matches is the number of distinct matched sub-graphs, counted in
	// closed form for labelled paths of 2 or 3 edges under
	// EmbeddingCrossings and enumerated for every other query.
	Matches int
	// Crossings is the raw count of inter-partition edges across those
	// matches (or traversal crossings under TraversalCrossings).
	Crossings int
	// WeightedIPT is Crossings × Freq.
	WeightedIPT float64
	// Capped is set when enumeration hit MaxMatchesPerQuery. A query
	// whose counted matches reach the cap is enumerated instead, so the
	// capped match set is the same either way.
	Capped bool
}

// Result aggregates a workload execution.
type Result struct {
	Workload string
	// IPT is the frequency-weighted inter-partition traversal count, the
	// paper's partitioning-quality measure.
	IPT float64
	// RawCrossings is the unweighted total.
	RawCrossings int
	PerQuery     []QueryStats
}

// Execute runs workload w over graph g partitioned by a, counting ipt.
// The same (g, w, options) triple scores different assignments on an
// identical match set, which is what makes the relative comparisons of
// Figs. 7–9 meaningful.
//
// Under EmbeddingCrossings on an undirected graph, a query that is a
// labelled path of 2 or 3 edges is scored in closed form (count.go) when
// it has fewer matches than the cap; every other query is enumerated.
// Both give the same Matches and Crossings.
func Execute(g *graph.Graph, a *partition.Assignment, w Workload, opt Options) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	cap := opt.MaxMatchesPerQuery
	if cap == 0 {
		cap = 2_000_000
	}
	res := Result{Workload: w.Name}
	var pc *pathCounter // built for the first path query
	for _, q := range w.Queries {
		qs := QueryStats{Name: q.Name}
		m, err := pattern.NewMatcher(q.Pattern)
		if err != nil {
			return Result{}, fmt.Errorf("workload %q: query %q: %w", w.Name, q.Name, err)
		}
		switch opt.Model {
		case EmbeddingCrossings:
			counted := false
			if labels := pathLabels(q.Pattern); labels != nil && !g.Directed() {
				if pc == nil {
					pc = newPathCounter(g, a)
				}
				if n, x := pc.count(labels); n < cap {
					qs.Matches, qs.Crossings, counted = n, x, true
				}
			}
			if !counted {
				countEmbeddingCrossings(g, a, q, m, cap, &qs)
			}
		case TraversalCrossings:
			countTraversalCrossings(g, a, q, m, cap, &qs)
		default:
			return Result{}, fmt.Errorf("workload: unknown cost model %d", opt.Model)
		}
		qs.WeightedIPT = float64(qs.Crossings) * q.Freq
		res.IPT += qs.WeightedIPT
		res.RawCrossings += qs.Crossings
		res.PerQuery = append(res.PerQuery, qs)
	}
	return res, nil
}

// countEmbeddingCrossings enumerates distinct matched sub-graphs
// (deduplicated across pattern automorphisms) and counts their cut edges.
// It is the fallback for queries the path counter does not cover and the
// oracle the counter is tested against.
func countEmbeddingCrossings(g *graph.Graph, a *partition.Assignment, q Query, m *pattern.Matcher, cap int, qs *QueryStats) {
	seen := make(map[string]struct{})
	qEdges := q.Pattern.Edges()
	buf := make([]graph.Edge, len(qEdges))
	m.Embeddings(g, pattern.Options{}, func(emb pattern.Embedding) bool {
		for i, e := range qEdges {
			buf[i] = graph.Edge{U: emb[e.U], V: emb[e.V]}.Norm()
		}
		sort.Slice(buf, func(i, j int) bool {
			if buf[i].U != buf[j].U {
				return buf[i].U < buf[j].U
			}
			return buf[i].V < buf[j].V
		})
		key := edgesKey(buf)
		if _, dup := seen[key]; dup {
			return true
		}
		seen[key] = struct{}{}
		qs.Matches++
		for _, e := range buf {
			if a.Of(e.U) != a.Of(e.V) {
				qs.Crossings++
			}
		}
		if qs.Matches >= cap {
			qs.Capped = true
			return false
		}
		return true
	})
}

// countTraversalCrossings instruments the matcher's adjacency walks.
func countTraversalCrossings(g *graph.Graph, a *partition.Assignment, q Query, m *pattern.Matcher, cap int, qs *QueryStats) {
	m.Embeddings(g, pattern.Options{
		Limit: cap,
		OnTraverse: func(from, to graph.VertexID) {
			if a.Of(from) != a.Of(to) {
				qs.Crossings++
			}
		},
	}, func(pattern.Embedding) bool {
		qs.Matches++
		if qs.Matches >= cap {
			qs.Capped = true
			return false
		}
		return true
	})
}

func edgesKey(edges []graph.Edge) string {
	buf := make([]byte, 0, len(edges)*16)
	for _, e := range edges {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(e.U>>(8*i)))
		}
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(e.V>>(8*i)))
		}
	}
	return string(buf)
}

// RelativeIPT returns r's ipt as a percentage of base's (the presentation
// of Figs. 7 and 8: "how many ipt did a partitioning suffer, as a
// percentage of those suffered by the Hash partitioning"). A zero baseline
// yields 100 (no information).
func RelativeIPT(r, base Result) float64 {
	if base.IPT == 0 {
		return 100
	}
	return 100 * r.IPT / base.IPT
}
