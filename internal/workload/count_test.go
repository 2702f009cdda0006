package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/pattern"
	"loom/internal/signature"
)

// enumerate scores w with the enumerator alone — the oracle for the path
// counter — aggregating exactly as Execute does.
func enumerate(t testing.TB, g *graph.Graph, a *partition.Assignment, w Workload, cap int) Result {
	t.Helper()
	if cap == 0 {
		cap = 2_000_000
	}
	res := Result{Workload: w.Name}
	for _, q := range w.Queries {
		m, err := pattern.NewMatcher(q.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		qs := QueryStats{Name: q.Name}
		countEmbeddingCrossings(g, a, q, m, cap, &qs)
		qs.WeightedIPT = float64(qs.Crossings) * q.Freq
		res.IPT += qs.WeightedIPT
		res.RawCrossings += qs.Crossings
		res.PerQuery = append(res.PerQuery, qs)
	}
	return res
}

// diffResults describes the first difference between got and the
// enumerator's want, or returns "" when they are identical.
func diffResults(got, want Result) string {
	if len(got.PerQuery) != len(want.PerQuery) {
		return fmt.Sprintf("%d queries, oracle %d", len(got.PerQuery), len(want.PerQuery))
	}
	for i, q := range got.PerQuery {
		if q != want.PerQuery[i] {
			return fmt.Sprintf("query %s: got %+v, oracle %+v", q.Name, q, want.PerQuery[i])
		}
	}
	if got.IPT != want.IPT || got.RawCrossings != want.RawCrossings {
		return fmt.Sprintf("ipt %v raw %d, oracle ipt %v raw %d", got.IPT, got.RawCrossings, want.IPT, want.RawCrossings)
	}
	return ""
}

// allPaths returns a workload of every 2- and 3-edge label sequence over
// alphabet, with distinct fractional frequencies so WeightedIPT and the
// summed IPT are checked bit for bit.
func allPaths(alphabet []graph.Label) Workload {
	w := Workload{Name: "all-paths"}
	var rec func(labels []graph.Label)
	rec = func(labels []graph.Label) {
		if len(labels) >= 3 {
			w.Queries = append(w.Queries, Query{
				Name:    fmt.Sprint(labels),
				Pattern: pattern.Path(labels...),
				Freq:    0.1 + float64(len(w.Queries))/7,
			})
		}
		if len(labels) == 4 {
			return
		}
		for _, l := range alphabet {
			rec(append(append([]graph.Label(nil), labels...), l))
		}
	}
	rec(nil)
	return w
}

// randomCase builds an undirected graph labelled from alphabet, with a
// few hubs, sparse IDs and a shuffled insertion order, and a partial
// assignment over k partitions built in a different order, leaving some
// graph vertices Unassigned.
func randomCase(r *rand.Rand, alphabet []graph.Label) (*graph.Graph, *partition.Assignment) {
	n := 4 + r.Intn(24)
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = graph.VertexID(i*7 + 3)
	}
	r.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	g := graph.New()
	for _, id := range ids {
		if err := g.AddVertex(id, alphabet[r.Intn(len(alphabet))]); err != nil {
			panic(err)
		}
	}
	hubs := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := 0.15
			if i < hubs {
				p = 0.8
			}
			if r.Float64() < p {
				if err := g.AddEdge(ids[i], ids[j]); err != nil {
					panic(err)
				}
			}
		}
	}
	k := 1 + r.Intn(3)
	a := partition.NewAssignment(k)
	r.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		if r.Intn(4) > 0 {
			a.Set(id, partition.ID(r.Intn(k)))
		}
	}
	return g, a
}

// TestPathCounterMatchesEnumeratorProperty checks the closed-form path
// counter against the enumerator on random labelled graphs, for every 2-
// and 3-edge path over the alphabet — a–a–a, a–b–a, a–a–b–b and a–b–b–a
// among them — with and without a match cap.
func TestPathCounterMatchesEnumeratorProperty(t *testing.T) {
	alphabets := [][]graph.Label{{"a", "b"}, {"a", "b", "c"}}
	workloads := []Workload{allPaths(alphabets[0]), allPaths(alphabets[1])}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		which := r.Intn(len(alphabets))
		g, a := randomCase(r, alphabets[which])
		w := workloads[which]
		cap := 0
		if r.Intn(3) == 0 {
			cap = 1 + r.Intn(40)
		}
		got, err := Execute(g, a, w, Options{MaxMatchesPerQuery: cap})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if d := diffResults(got, enumerate(t, g, a, w, cap)); d != "" {
			t.Logf("seed %d (%v, cap %d): %s", seed, g, cap, d)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPathLabels(t *testing.T) {
	for _, tc := range []struct {
		q    *graph.Graph
		want []graph.Label
	}{
		{pattern.Path("a", "b", "c"), []graph.Label{"a", "b", "c"}},
		{pattern.Path("a", "b", "b", "a"), []graph.Label{"a", "b", "b", "a"}},
		{pattern.Star("b", "a", "c"), []graph.Label{"a", "b", "c"}},
		{pattern.FromEdges(
			pattern.LabelledEdge{U: 1, LU: "x", V: 2, LV: "y"},
			pattern.LabelledEdge{U: 3, LU: "z", V: 2, LV: "y"},
		), []graph.Label{"x", "y", "z"}},
		{pattern.Path("a", "b"), nil},
		{pattern.Path("a", "b", "c", "d", "e"), nil},
		{pattern.Triangle("a", "b", "c"), nil},
		{pattern.Star("a", "b", "c", "d"), nil},
	} {
		if got := pathLabels(tc.q); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("pathLabels(%v) = %v, want %v", tc.q.Edges(), got, tc.want)
		}
	}
}

// fixtureAssignments partitions a generated dataset with Hash and Loom
// (k = 4, bfs order), the two assignments the benchmark scores.
func fixtureAssignments(t testing.TB, name string, g *graph.Graph, w Workload) map[string]*partition.Assignment {
	t.Helper()
	stream := graph.StreamOf(g, graph.OrderBFS, rand.New(rand.NewSource(1)))
	k := 4
	capC := partition.CapacityFor(g.NumVertices(), k, partition.DefaultImbalance)
	hash := partition.NewHash(k, capC)
	scheme := signature.NewScheme(signature.DefaultP, 1)
	scheme.RegisterLabels(dataset.DatasetLabels(name))
	trie, err := w.BuildTrie(scheme)
	if err != nil {
		t.Fatal(err)
	}
	loomP, err := newLoomForTest(k, capC, 256, trie)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*partition.Assignment{}
	for algo, p := range map[string]partition.Streamer{"hash": hash, "loom": loomP} {
		for _, se := range stream {
			p.ProcessEdge(se)
		}
		p.Flush()
		out[algo] = p.Assignment()
	}
	return out
}

// TestExecuteMatchesEnumeratorOnDatasets checks Execute against the
// enumerator query by query on the benchmarked datasets, whose queries
// are all counted paths, and on lubm, whose triangle query is enumerated.
func TestExecuteMatchesEnumeratorOnDatasets(t *testing.T) {
	for _, name := range []string{"dblp", "musicbrainz", "provgen", "lubm"} {
		g, err := dataset.Generate(name, 1500, 5)
		if err != nil {
			t.Fatal(err)
		}
		w, err := ForDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		paths := 0
		for _, q := range w.Queries {
			if pathLabels(q.Pattern) != nil {
				paths++
			}
		}
		if name != "lubm" && paths != len(w.Queries) {
			t.Errorf("%s: %d of %d queries are counted paths, want all", name, paths, len(w.Queries))
		}
		for algo, a := range fixtureAssignments(t, name, g, w) {
			got, err := Execute(g, a, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := enumerate(t, g, a, w, 0)
			if d := diffResults(got, want); d != "" {
				t.Errorf("%s/%s: %s", name, algo, d)
			}
			if want.IPT == 0 {
				t.Errorf("%s/%s: zero ipt; fixture too small to compare", name, algo)
			}
		}
	}
}

// TestExecuteCapFallsBackToEnumerator sets the cap at, just above and
// below each query's true match count: a query that reaches the cap must
// report the enumerator's capped result, one below it the counted one.
func TestExecuteCapFallsBackToEnumerator(t *testing.T) {
	g, err := dataset.Generate("provgen", 1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ForDataset("provgen")
	if err != nil {
		t.Fatal(err)
	}
	a := fixtureAssignments(t, "provgen", g, w)["hash"]
	full := enumerate(t, g, a, w, 0)
	for _, q := range full.PerQuery {
		for _, cap := range []int{q.Matches / 2, q.Matches, q.Matches + 1} {
			got, err := Execute(g, a, w, Options{MaxMatchesPerQuery: cap})
			if err != nil {
				t.Fatal(err)
			}
			want := enumerate(t, g, a, w, cap)
			if d := diffResults(got, want); d != "" {
				t.Errorf("cap %d: %s", cap, d)
			}
		}
	}
}

// BenchmarkExecute scores a Hash assignment with Execute (counted) and
// with the enumerator alone (enumerate).
func BenchmarkExecute(b *testing.B) {
	for _, name := range []string{"dblp", "provgen"} {
		g, err := dataset.Generate(name, 20_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		w, err := ForDataset(name)
		if err != nil {
			b.Fatal(err)
		}
		k := 8
		hash := partition.NewHash(k, partition.CapacityFor(g.NumVertices(), k, partition.DefaultImbalance))
		for _, se := range graph.StreamOf(g, graph.OrderBFS, rand.New(rand.NewSource(1))) {
			hash.ProcessEdge(se)
		}
		hash.Flush()
		a := hash.Assignment()
		b.Run(name+"/counted", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Execute(g, a, w, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/enumerate", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				enumerate(b, g, a, w, 0)
			}
		})
	}
}
