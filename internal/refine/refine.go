// Package refine implements an offline, workload-aware re-partitioner in
// the spirit of TAPER (Firth & Missier, Distributed and Parallel Databases
// 2017) — the authors' companion system that §6 of the Loom paper proposes
// integrating with Loom to counter workload drift and streaming mistakes.
//
// Given a partitioned labelled graph and the workload's TPSTry++, every
// edge is weighted by the *traversal likelihood* the workload implies: the
// support of the single-edge motif matching its endpoint labels (edges no
// query traverses weigh nothing, plus a small uniform smoothing so pure
// edge-cut still improves on ties). Vertices then migrate greedily between
// partitions whenever the move strictly reduces the weighted cut without
// violating the capacity bound, for a bounded number of passes.
//
// This is intentionally a lightweight local refiner (Kernighan–Lin-flavour
// single-vertex moves, no swap chains): it runs after Loom has produced a
// partitioning and shaves off the placement mistakes a one-pass streaming
// algorithm cannot avoid, at the cost of breaking the strict streaming
// model — exactly the trade the paper describes for re-partitioners.
package refine

import (
	"fmt"
	"sort"

	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/tpstry"
)

// Config controls a refinement run.
type Config struct {
	// Capacity is the per-partition vertex bound (ν·n/k, as used by the
	// streaming phase). Required.
	Capacity float64
	// MaxPasses bounds the number of full sweeps (default 4; refinement
	// usually converges in 2–3).
	MaxPasses int
	// Smoothing is the uniform weight added to every edge so that edges
	// outside the workload's traversal set still prefer co-location
	// (default 0.01).
	Smoothing float64
}

func (c Config) withDefaults() Config {
	if c.MaxPasses == 0 {
		c.MaxPasses = 4
	}
	if c.Smoothing == 0 {
		c.Smoothing = 0.01
	}
	return c
}

// Stats reports what a refinement run did.
type Stats struct {
	Passes    int
	Moves     int
	CutBefore float64 // weighted cut before refinement
	CutAfter  float64
}

// Refine migrates vertices of g between the partitions of a to reduce the
// workload-weighted edge cut. It returns a new assignment (a is not
// modified) and run statistics. Unassigned vertices are left unassigned.
func Refine(g *graph.Graph, a *partition.Assignment, trie *tpstry.Trie, cfg Config) (*partition.Assignment, Stats, error) {
	cfg = cfg.withDefaults()
	if cfg.Capacity <= 0 {
		return nil, Stats{}, fmt.Errorf("refine: Capacity must be positive, got %v", cfg.Capacity)
	}
	if a.K < 1 {
		return nil, Stats{}, fmt.Errorf("refine: assignment has no partitions")
	}

	// Edge weights: single-edge motif support + smoothing. Supports are
	// label-pair properties, so cache by label pair.
	scheme := trie.Scheme()
	weightOf := func(lu, lv graph.Label) float64 {
		d := scheme.EdgeDelta(lu, 0, lv, 0)
		if n, ok := trie.Root().ChildByDelta(d); ok {
			return trie.SupportOf(n) + cfg.Smoothing
		}
		return cfg.Smoothing
	}
	type pair struct{ a, b graph.Label }
	cache := make(map[pair]float64)
	weight := func(e graph.Edge) float64 {
		lu, lv := g.EdgeLabels(e)
		if lv < lu {
			lu, lv = lv, lu
		}
		k := pair{lu, lv}
		w, ok := cache[k]
		if !ok {
			w = weightOf(lu, lv)
			cache[k] = w
		}
		return w
	}

	// Working copy: the dense parts slice plus the assignment's vertex
	// table (shared; refinement never adds vertices).
	tbl := a.Table()
	parts := a.PartsClone()
	sizes := append([]int(nil), a.Sizes...)
	lookup := func(v graph.VertexID) partition.ID {
		i, ok := tbl.Lookup(int64(v))
		if !ok || int(i) >= len(parts) {
			return partition.Unassigned
		}
		return parts[i]
	}

	// cut replays the edge log, so a spilled chunk that cannot be read
	// back is an error.
	cut := func() (float64, error) {
		total := 0.0
		err := g.EachEdge(func(e graph.Edge) error {
			if lookup(e.U) != lookup(e.V) {
				total += weight(e)
			}
			return nil
		})
		return total, err
	}

	var st Stats
	var err error
	if st.CutBefore, err = cut(); err != nil {
		return nil, Stats{}, err
	}

	// Deterministic sweep order: vertices sorted by ID.
	order := g.Vertices()
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	var ns []graph.VertexID
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		moves := 0
		for _, v := range order {
			vi, ok := tbl.Lookup(int64(v))
			if !ok || int(vi) >= len(parts) {
				continue // unknown to the assignment: skip
			}
			cur := parts[vi]
			if cur == partition.Unassigned {
				continue // unassigned (e.g. still in a window): skip
			}
			// Weighted adjacency per partition.
			attract := make([]float64, a.K)
			ns = g.Neighbors(v, ns[:0])
			for _, u := range ns {
				if p := lookup(u); p != partition.Unassigned {
					attract[p] += weight(graph.Edge{U: v, V: u})
				}
			}
			best, bestGain := cur, 0.0
			for p := 0; p < a.K; p++ {
				pid := partition.ID(p)
				if pid == cur {
					continue
				}
				if float64(sizes[p])+1 > cfg.Capacity {
					continue
				}
				gain := attract[p] - attract[cur]
				if gain > bestGain+1e-12 {
					best, bestGain = pid, gain
				}
			}
			if best != cur {
				parts[vi] = best
				sizes[cur]--
				sizes[best]++
				moves++
			}
		}
		st.Passes++
		st.Moves += moves
		if moves == 0 {
			break
		}
	}

	if st.CutAfter, err = cut(); err != nil {
		return nil, Stats{}, err
	}
	return partition.NewAssignmentFrom(a.K, tbl, parts), st, nil
}
