package main

import (
	"math/rand"
	"time"

	"loom"
)

// input is everything a run feeds the system, made from the seed alone.
type input struct {
	edges []loom.StreamEdge // offered stream, in arrival order (noise included)
	verts []int64           // distinct vertex ids in first-seen order
	// vertsAt[i] is how many distinct vertices edges[:i] mention; requests
	// during steady ingest target only the streamed prefix.
	vertsAt []int32
	wl      *loom.Workload

	generate, order time.Duration // the two dataset-layer calls, timed from outside
}

// noiseLookback bounds how far back a re-delivered edge is drawn from: far
// enough that most duplicates have already left the 10 000-edge matching
// window and are caught by the recorded graph's edge set instead.
const noiseLookback = 50_000

// makeInput generates spec's dataset at scale, orders it breadth-first (the
// paper's default stream order) and injects the spec's delivery noise.
func makeInput(spec workloadSpec, scale int, seed int64) (*input, error) {
	in := &input{}
	t0 := time.Now()
	raw, err := loom.GenerateDataset(spec.dataset, scale, seed)
	if err != nil {
		return nil, err
	}
	in.generate = time.Since(t0)
	t0 = time.Now()
	ordered, err := loom.OrderStream(raw, "bfs", seed)
	if err != nil {
		return nil, err
	}
	in.order = time.Since(t0)

	in.edges = ordered
	if spec.noise > 0 {
		in.edges = addNoise(ordered, spec.noise, seed)
	}
	seen := make(map[int64]struct{}, len(ordered))
	in.vertsAt = make([]int32, len(in.edges)+1)
	for i, e := range in.edges {
		for _, v := range [2]int64{e.U, e.V} {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				in.verts = append(in.verts, v)
			}
		}
		in.vertsAt[i+1] = int32(len(in.verts))
	}
	if in.wl, err = loom.DatasetWorkload(spec.dataset); err != nil {
		return nil, err
	}
	return in, nil
}

// addNoise interleaves at-least-once delivery noise into a clean stream so
// that share of the result is noise: nine in ten noise edges re-deliver one
// of the last noiseLookback clean edges, one in ten is a self-loop on a
// known vertex. Ingest drops both; no vertex is introduced by noise alone.
func addNoise(clean []loom.StreamEdge, share float64, seed int64) []loom.StreamEdge {
	rng := rand.New(rand.NewSource(seed ^ 0x6e6f697365)) // "noise"
	perClean := share / (1 - share)
	out := make([]loom.StreamEdge, 0, int(float64(len(clean))*(1+perClean))+1)
	for i, e := range clean {
		out = append(out, e)
		if rng.Float64() >= perClean {
			continue
		}
		old := clean[i-rng.Intn(min(i+1, noiseLookback))]
		if rng.Intn(10) == 0 {
			old.V, old.LV = old.U, old.LU
		}
		out = append(out, old)
	}
	return out
}

// options are the library options for this input: the defaults a user gets
// except Partitions and the two sizing hints. durableDir switches to the
// WAL-backed configuration, which leaves ExpectedEdges unset because
// cmd/loom-router has no flag for it and a follower must present the
// primary's exact option fingerprint.
func (in *input) options(durableDir string) loom.Options {
	opt := loom.Options{Partitions: partitions, ExpectedVertices: len(in.verts)}
	if durableDir == "" {
		opt.ExpectedEdges = len(in.edges)
	} else {
		opt.WALDir = durableDir
	}
	return opt
}
