// Component and ingest micro-benchmarks: per-partitioner runs whose ns/op
// is directly comparable to Table 2 (time to partition a 10k-edge
// stream), plus the signature, trie, window, eviction, public-API and
// read-path hot paths in isolation. Run them with:
//
//	go test -bench=. -benchmem
//
// The paper's tables and figures are cmd/loom-bench's (EXPERIMENTS.md);
// end-to-end speed, memory and serving numbers are the repository
// benchmark's (benchmark/README.md).
package loom_test

import (
	"fmt"
	"testing"

	"loom"

	"loom/internal/core"
	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/refine"
	"loom/internal/signature"
	"loom/internal/tpstry"
	"loom/internal/window"
	"loom/internal/workload"
)

// ---------------------------------------------------------------------------
// Micro-benchmarks: time to partition a 10k-edge stream (Table 2's unit).
// ---------------------------------------------------------------------------

// tenKStream generates a 10k-edge BFS stream of the MusicBrainz-like graph
// (the paper's most heterogeneous dataset) once per benchmark binary.
func tenKStream(b *testing.B) (graph.Stream, *graph.Graph) {
	b.Helper()
	g, err := dataset.Generate("musicbrainz", 4500, 42)
	if err != nil {
		b.Fatal(err)
	}
	s := graph.StreamOf(g, graph.OrderBFS, nil)
	if len(s) < 10_000 {
		b.Fatalf("stream too short: %d", len(s))
	}
	return s[:10_000], g
}

func streamVertexCount(s graph.Stream) int {
	seen := make(map[graph.VertexID]struct{})
	for _, e := range s {
		seen[e.U] = struct{}{}
		seen[e.V] = struct{}{}
	}
	return len(seen)
}

func BenchmarkHashPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.NewHash(8, partition.CapacityFor(n, 8, partition.DefaultImbalance))
		for _, e := range s {
			p.ProcessEdge(e)
		}
		p.Flush()
	}
}

func BenchmarkLDGPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.NewLDG(8, partition.CapacityFor(n, 8, partition.DefaultImbalance))
		for _, e := range s {
			p.ProcessEdge(e)
		}
		p.Flush()
	}
}

func BenchmarkFennelPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.NewFennel(8, n, len(s))
		for _, e := range s {
			p.ProcessEdge(e)
		}
		p.Flush()
	}
}

func BenchmarkLoomPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.New(core.Config{
			K:        8,
			Capacity: partition.CapacityFor(n, 8, partition.DefaultImbalance),
			// Paper configuration: window 10k, T = 40%.
			WindowSize:       10_000,
			SupportThreshold: 0.40,
		}, trie)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range s {
			p.ProcessEdge(e)
		}
		p.Flush()
	}
}

// BenchmarkDurableLoomPartition10k is BenchmarkLoomPartition10k at the
// public API with a write-ahead log under the default group-commit policy
// — the pair quantifies what durability costs on the paper configuration.
// Each iteration pays the full lifecycle (Open's directory fsync, Close's
// final group write + fsync) on top of the ingest itself; the benchmark's
// durable.overhead_x isolates the in-stream overhead under the default
// policy (benchmark/README.md).
func BenchmarkDurableLoomPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	stream := make([]loom.StreamEdge, len(s))
	seen := make(map[int64]struct{})
	for i, e := range s {
		stream[i] = loom.StreamEdge{U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV)}
		seen[int64(e.U)] = struct{}{}
		seen[int64(e.V)] = struct{}{}
	}
	wl, err := loom.DatasetWorkload("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	opt := loom.Options{
		Partitions:       8,
		ExpectedVertices: len(seen),
		// Paper configuration: window 10k, T = 40%.
		WindowSize:            10_000,
		SupportThreshold:      0.40,
		Seed:                  42,
		DisableGraphRecording: true,
		WALSync:               loom.WALSyncBatch,
	}
	tmp := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opt
		o.WALDir = fmt.Sprintf("%s/run-%d", tmp, i)
		p, _, err := loom.Open(o, wl)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(stream); j += 256 {
			end := min(j+256, len(stream))
			if err := p.AddBatch(stream[j:end]); err != nil {
				b.Fatal(err)
			}
		}
		p.Flush()
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkSignatureOfQueryGraph(b *testing.B) {
	wl, err := workload.ForDataset("lubm")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 1)
	q := wl.Queries[0].Pattern
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scheme.SignatureOf(q)
	}
}

func BenchmarkEdgeDelta(b *testing.B) {
	scheme := signature.NewScheme(signature.DefaultP, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scheme.EdgeDelta("Person", i%4, "Paper", (i+1)%4)
	}
}

func BenchmarkTrieConstruction(b *testing.B) {
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheme := signature.NewScheme(signature.DefaultP, 42)
		trie := tpstry.New(scheme)
		for _, q := range wl.Queries {
			if err := trie.AddQuery(q.Pattern, q.Freq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWindowInsert(b *testing.B) {
	s, _ := tenKStream(b)
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := window.NewMatcher(trie, 0.40, len(s)+1)
		for _, e := range s {
			if _, ok := w.SingleEdgeMotif(e); ok {
				if err := w.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkRefine(b *testing.B) {
	g, err := dataset.Generate("provgen", 4000, 42)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.ForDataset("provgen")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("provgen"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	k := 8
	capC := partition.CapacityFor(g.NumVertices(), k, partition.DefaultImbalance)
	h := partition.NewHash(k, capC)
	for _, se := range graph.StreamOf(g, graph.OrderBFS, nil) {
		h.ProcessEdge(se)
	}
	a := h.Assignment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := refine.Refine(g, a, trie, refine.Config{Capacity: capC}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultisetOps(b *testing.B) {
	base := signature.NewMultiset(3, 17, 42, 42, 99, 120, 200)
	d := signature.Delta{7, 55, 180}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grown := base.PlusDelta(d)
		if _, ok := grown.Minus(base); !ok {
			b.Fatal("minus failed")
		}
	}
}

func BenchmarkTrieChildLookup(b *testing.B) {
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	d := scheme.EdgeDelta(dataset.LArtist, 0, dataset.LAlbum, 0)
	root := trie.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := root.ChildByDelta(d); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming hot-path benchmarks: cost of ingesting ONE stream edge
// (ns/op and allocs/op are per edge). These are the numbers the interning
// refactor targets; run with
//
//	go test -bench=AddEdge -benchmem
// ---------------------------------------------------------------------------

// runAddEdge drives b.N single-edge ingests through fresh partitioners,
// recycling the stream (the partitioner is rebuilt outside the timer when
// the stream wraps, so steady-state per-edge cost dominates).
func runAddEdge(b *testing.B, s graph.Stream, newPartitioner func() partition.Streamer) {
	b.Helper()
	b.ReportAllocs()
	p := newPartitioner()
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == len(s) {
			b.StopTimer()
			p = newPartitioner()
			j = 0
			b.StartTimer()
		}
		p.ProcessEdge(s[j])
		j++
	}
}

// ---------------------------------------------------------------------------
// Eviction-path benchmarks: cost of evicting ONE window edge with its
// motif cluster (equal opportunism end to end), and of draining a full
// window. The eviction overhaul targets 0 steady-state allocs/op on the
// EvictOne path; run with
//
//	go test -bench 'EvictOne|Flush' -benchmem
// ---------------------------------------------------------------------------

// loomFor10k builds a Loom configured like the paper's Table 2 run over
// the shared 10k-edge stream.
func loomFor10k(b *testing.B, n int) func() *core.Loom {
	b.Helper()
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	return func() *core.Loom {
		p, err := core.New(core.Config{
			K:                8,
			Capacity:         partition.CapacityFor(n, 8, partition.DefaultImbalance),
			WindowSize:       10_000,
			SupportThreshold: 0.40,
		}, trie)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
}

// BenchmarkEvictOne measures one eviction round: oldest edge → Me →
// support sort → single-pass bidding → cluster assignment → window
// removal. The window is refilled outside the timer whenever it drains.
func BenchmarkEvictOne(b *testing.B) {
	s, _ := tenKStream(b)
	newLoom := loomFor10k(b, streamVertexCount(s))
	fill := func() *core.Loom {
		p := newLoom()
		for _, e := range s {
			p.ProcessEdge(e)
		}
		return p
	}
	b.ReportAllocs()
	p := fill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Window().Empty() {
			b.StopTimer()
			p = fill()
			b.StartTimer()
		}
		if !p.EvictOne() {
			b.Fatal("eviction failed on a non-empty window")
		}
	}
}

// BenchmarkFlush measures draining a full 10k-edge window end to end.
func BenchmarkFlush(b *testing.B) {
	s, _ := tenKStream(b)
	newLoom := loomFor10k(b, streamVertexCount(s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := newLoom()
		for _, e := range s {
			p.ProcessEdge(e)
		}
		b.StartTimer()
		p.Flush()
	}
}

func BenchmarkAddEdgeLoom(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	runAddEdge(b, s, func() partition.Streamer {
		p, err := core.New(core.Config{
			K:                8,
			Capacity:         partition.CapacityFor(n, 8, partition.DefaultImbalance),
			WindowSize:       1024,
			SupportThreshold: 0.40,
		}, trie)
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
}

func BenchmarkAddEdgeBaselines(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	capC := partition.CapacityFor(n, 8, partition.DefaultImbalance)
	b.Run("hash", func(b *testing.B) {
		runAddEdge(b, s, func() partition.Streamer { return partition.NewHash(8, capC) })
	})
	b.Run("ldg", func(b *testing.B) {
		runAddEdge(b, s, func() partition.Streamer { return partition.NewLDG(8, capC) })
	})
	b.Run("fennel", func(b *testing.B) {
		runAddEdge(b, s, func() partition.Streamer { return partition.NewFennel(8, n, len(s)) })
	})
}

// ---------------------------------------------------------------------------
// Public-API ingest benchmarks: the concurrent loom.Partitioner pays an
// ingest lock per call, so per-edge AddEdge and 256-edge AddBatch bracket
// the cost of the public surface (ns/op and allocs/op are per edge; graph
// recording disabled so the numbers isolate the streaming path). Run with
//
//	go test -bench=AddBatch -benchmem
// ---------------------------------------------------------------------------

// publicTenKStream converts the shared 10k-edge stream to the public edge
// type, returning it with its distinct-vertex count.
func publicTenKStream(b *testing.B) ([]loom.StreamEdge, int) {
	s, _ := tenKStream(b)
	out := make([]loom.StreamEdge, len(s))
	for i, e := range s {
		out[i] = loom.StreamEdge{U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV)}
	}
	return out, streamVertexCount(s)
}

// newPublicLoom mirrors BenchmarkAddEdgeLoom's configuration through the
// public constructor.
func newPublicLoom(b *testing.B, n int) func() *loom.Partitioner {
	b.Helper()
	wl, err := loom.DatasetWorkload("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	return func() *loom.Partitioner {
		p, err := loom.New(loom.Options{
			Partitions:            8,
			ExpectedVertices:      n,
			WindowSize:            1024,
			Seed:                  42,
			DisableGraphRecording: true,
		}, wl)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
}

func BenchmarkAddBatch(b *testing.B) {
	s, n := publicTenKStream(b)
	newP := newPublicLoom(b, n)
	b.Run("edge", func(b *testing.B) {
		b.ReportAllocs()
		p := newP()
		j := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if j == len(s) {
				b.StopTimer()
				p = newP()
				j = 0
				b.StartTimer()
			}
			e := s[j]
			p.AddEdge(e.U, e.LU, e.V, e.LV)
			j++
		}
	})
	b.Run("batch256", func(b *testing.B) {
		const batchSize = 256
		b.ReportAllocs()
		p := newP()
		j := 0
		b.ResetTimer()
		for i := 0; i < b.N; {
			if j == len(s) {
				b.StopTimer()
				p = newP()
				j = 0
				b.StartTimer()
			}
			end := j + batchSize
			if end > len(s) {
				end = len(s)
			}
			if left := b.N - i; end > j+left {
				end = j + left
			}
			if err := p.AddBatch(s[j:end]); err != nil {
				b.Fatal(err)
			}
			i += end - j
			j = end
		}
	})
}

// BenchmarkAddBatchParallel measures the stage-parallel AddBatch pipeline
// across worker counts (workers1 is the exact single-threaded path and the
// regression guard for it; the others exercise the gang prepare pre-pass).
// Batches are 2048 edges. On a single-core machine all sub-benchmarks
// share one CPU, so the multi-worker numbers measure pipeline overhead
// rather than speedup.
func BenchmarkAddBatchParallel(b *testing.B) {
	s, _ := tenKStream(b)
	pub := make([]loom.StreamEdge, len(s))
	for i, e := range s {
		pub[i] = loom.StreamEdge{U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV)}
	}
	n := streamVertexCount(s)
	wl, err := loom.DatasetWorkload("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			const batchSize = 2048
			newP := func() *loom.Partitioner {
				p, err := loom.New(loom.Options{
					Partitions:            8,
					ExpectedVertices:      n,
					WindowSize:            1024,
					Seed:                  42,
					Workers:               workers,
					DisableGraphRecording: true,
				}, wl)
				if err != nil {
					b.Fatal(err)
				}
				return p
			}
			b.ReportAllocs()
			p := newP()
			j := 0
			b.ResetTimer()
			for i := 0; i < b.N; {
				if j == len(pub) {
					b.StopTimer()
					p = newP()
					j = 0
					b.StartTimer()
				}
				end := j + batchSize
				if end > len(pub) {
					end = len(pub)
				}
				if left := b.N - i; end > j+left {
					end = j + left
				}
				if err := p.AddBatch(pub[j:end]); err != nil {
					b.Fatal(err)
				}
				i += end - j
				j = end
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Read-path benchmarks: snapshot capture and point reads at serving scale
// (one million assigned vertices, the router-tier regime). Run with
//
//	go test -bench='Snapshot|PartitionOf' -benchmem
// ---------------------------------------------------------------------------

// benchReadVertices is 2^20 ≈ one million assigned vertices.
const benchReadVertices = 1 << 20

// benchReadPartitioner builds a hash-baseline partitioner with n assigned
// vertices (hash places every endpoint immediately, so construction is the
// cheap way to a serving-scale assignment).
func benchReadPartitioner(b *testing.B, n int) *loom.Partitioner {
	b.Helper()
	p, err := loom.NewBaseline("hash", loom.Options{
		Partitions: 8, ExpectedVertices: n, DisableGraphRecording: true,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 8192
	batch := make([]loom.StreamEdge, 0, chunk)
	for i := 0; i < n; i += 2 {
		batch = append(batch, loom.StreamEdge{U: int64(i), LU: "n", V: int64(i + 1), LV: "n"})
		if len(batch) == chunk {
			if err := p.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := p.AddBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	p.Flush()
	if got := p.Snapshot().NumAssigned(); got != n {
		b.Fatalf("built %d assigned vertices, want %d", got, n)
	}
	return p
}

// BenchmarkSnapshot measures Partitioner.Snapshot at one million assigned
// vertices — the capture cost a router replica pays per refresh.
func BenchmarkSnapshot(b *testing.B) {
	p := benchReadPartitioner(b, benchReadVertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := p.Snapshot(); s.NumAssigned() != benchReadVertices {
			b.Fatal("inconsistent snapshot")
		}
	}
}

var sinkPart int

// BenchmarkPartitionOf measures uncontended point reads against the live
// partitioner (cache-hot vertex: the per-call floor of the read path).
func BenchmarkPartitionOf(b *testing.B) {
	p := benchReadPartitioner(b, benchReadVertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, ok := p.PartitionOf(12345)
		if !ok {
			b.Fatal("vertex missing")
		}
		sinkPart += pt
	}
}

// BenchmarkPartitionOfParallel measures point-read scalability: GOMAXPROCS
// reader goroutines issuing PartitionOf against one partitioner.
func BenchmarkPartitionOfParallel(b *testing.B) {
	p := benchReadPartitioner(b, benchReadVertices)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v, local := int64(0), 0
		for pb.Next() {
			pt, _ := p.PartitionOf(v & (benchReadVertices - 1))
			local += pt
			v++
		}
		sinkPart += local
	})
}

func BenchmarkWorkloadExecution(b *testing.B) {
	s, g := tenKStream(b)
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	n := streamVertexCount(s)
	p := partition.NewHash(8, partition.CapacityFor(n, 8, partition.DefaultImbalance))
	for _, e := range s {
		p.ProcessEdge(e)
	}
	a := p.Assignment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Execute(g, a, wl, workload.Options{MaxMatchesPerQuery: 50_000}); err != nil {
			b.Fatal(err)
		}
	}
}
