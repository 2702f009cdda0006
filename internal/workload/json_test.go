package workload

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"loom/internal/graph"
)

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range []string{"dblp", "provgen", "musicbrainz", "lubm"} {
		w, err := ForDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, w); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		back, err := ParseJSON(&buf)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if back.Name != w.Name || len(back.Queries) != len(w.Queries) {
			t.Fatalf("%s: round trip mismatch", name)
		}
		for i := range w.Queries {
			a, b := w.Queries[i], back.Queries[i]
			if a.Name != b.Name || a.Freq != b.Freq {
				t.Errorf("%s/%s: metadata mismatch", name, a.Name)
			}
			if a.Pattern.NumEdges() != b.Pattern.NumEdges() || a.Pattern.NumVertices() != b.Pattern.NumVertices() {
				t.Errorf("%s/%s: shape mismatch", name, a.Name)
			}
		}
	}
}

func TestParseJSONValid(t *testing.T) {
	in := `{
	  "name": "social",
	  "queries": [
	    {"name": "coauthors", "freq": 0.6,
	     "edges": [[1, "Person", 2, "Paper"], [2, "Paper", 3, "Person"]]}
	  ]
	}`
	w, err := ParseJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "social" || len(w.Queries) != 1 {
		t.Fatalf("parsed %+v", w)
	}
	q := w.Queries[0]
	if q.Pattern.NumVertices() != 3 || q.Pattern.NumEdges() != 2 {
		t.Errorf("pattern shape wrong: %v", q.Pattern)
	}
}

func TestParseJSONErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{`,
		"unknown field": `{"nope": 1}`,
		"bad id":        `{"name":"x","queries":[{"name":"q","freq":1,"edges":[["a","A",2,"B"]]}]}`,
		"self loop":     `{"name":"x","queries":[{"name":"q","freq":1,"edges":[[1,"A",1,"A"]]}]}`,
		"zero freq":     `{"name":"x","queries":[{"name":"q","freq":0,"edges":[[1,"A",2,"B"]]}]}`,
		"disconnected":  `{"name":"x","queries":[{"name":"q","freq":1,"edges":[[1,"A",2,"B"],[3,"A",4,"B"]]}]}`,
		"label clash":   `{"name":"x","queries":[{"name":"q","freq":1,"edges":[[1,"A",2,"B"],[1,"Z",3,"C"]]}]}`,
	}
	for name, in := range cases {
		if _, err := ParseJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// labelledEdge is one pattern edge with its endpoint labels, oriented so
// that u ≤ v: patterns are undirected.
type labelledEdge struct {
	u, v   int64
	lu, lv string
}

func labelledEdges(g *graph.Graph) map[labelledEdge]bool {
	out := map[labelledEdge]bool{}
	for _, e := range g.Edges() {
		lu, lv := g.EdgeLabels(e)
		le := labelledEdge{int64(e.U), int64(e.V), string(lu), string(lv)}
		if le.u > le.v {
			le = labelledEdge{le.v, le.u, le.lv, le.lu}
		}
		out[le] = true
	}
	return out
}

// FuzzParseJSON feeds arbitrary bytes to the workload decoder, which reads
// files from outside the program (loom-partition -workload-file). No input
// may panic, and a workload it accepts must survive WriteJSON → ParseJSON
// with equal names, frequencies and labelled edge sets.
func FuzzParseJSON(f *testing.F) {
	f.Add([]byte(`{"name":"custom","queries":[{"name":"step","freq":1,
		"edges":[[1,"Entity",2,"Activity"],[2,"Activity",3,"Entity"]]}]}`))
	for _, name := range []string{"dblp", "provgen", "musicbrainz", "lubm"} {
		w, err := ForDataset(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, w); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		w, err := ParseJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, w); err != nil {
			t.Fatalf("accepted workload does not serialise: %v", err)
		}
		back, err := ParseJSON(&buf)
		if err != nil {
			t.Fatalf("serialised workload does not parse: %v\n%s", err, buf.Bytes())
		}
		if back.Name != w.Name || len(back.Queries) != len(w.Queries) {
			t.Fatalf("round trip: %q with %d queries, want %q with %d", back.Name, len(back.Queries), w.Name, len(w.Queries))
		}
		for i, a := range w.Queries {
			b := back.Queries[i]
			if a.Name != b.Name || a.Freq != b.Freq {
				t.Fatalf("query %d: round trip (%q, %v), want (%q, %v)", i, b.Name, b.Freq, a.Name, a.Freq)
			}
			if !maps.Equal(labelledEdges(a.Pattern), labelledEdges(b.Pattern)) {
				t.Fatalf("query %q: labelled edges changed in the round trip", a.Name)
			}
		}
	})
}
