package loom

// One vertex space per partitioner: the recorded graph, the tracker, the
// window and the core share one vertex table, one label table and one
// label code per vertex, and the checkpoint carries that space once.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"loom/internal/wal"
)

// assertOneSpace fails unless every layer of p holds the same vertex and
// label tables.
func assertOneSpace(t *testing.T, p *Partitioner, when string) {
	t.Helper()
	sp := p.g.Space()
	if p.tr.Verts() != sp.Verts() {
		t.Errorf("%s: tracker and recorded graph hold different vertex tables", when)
	}
	if p.loom == nil {
		return
	}
	win := p.loom.Window()
	if p.loom.Space() != sp || win.Verts() != sp.Verts() || win.Labels() != sp.Labels() {
		t.Errorf("%s: core/window and recorded graph hold different tables", when)
	}
	if n := sp.Verts().Len(); n == 0 || sp.Labels().Len() == 0 {
		t.Errorf("%s: shared space is empty (%d vertices)", when, n)
	}
}

func TestOneVertexSpace(t *testing.T) {
	wl, edges, opt := faultStream(t)
	fs := wal.NewMemFS()
	p, _, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddBatch(edges); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	assertOneSpace(t, p, "after ingest")
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	q, _, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	assertOneSpace(t, q, "after reopen")

	base := opt
	base.WALDir = ""
	b, err := NewBaseline("ldg", base, wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddBatch(edges); err != nil {
		t.Fatal(err)
	}
	assertOneSpace(t, b, "ldg baseline")
}

// TestCheckpointKeepsSelfLoopLabels: a vertex first seen in a self-loop is
// labelled by the recorded graph though the streamer never places it; a
// checkpoint must keep that label, so a later conflicting edge is still
// rejected after recovery.
func TestCheckpointKeepsSelfLoopLabels(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := Options{Partitions: 2, ExpectedVertices: 256, WindowSize: 16, Workers: workers, WALDir: "wal"}
			fs := wal.NewMemFS()
			p, _, err := OpenFS(fs, opt, socialWorkload())
			if err != nil {
				t.Fatal(err)
			}
			// A batch past the pipeline threshold, so Workers=4 runs the
			// parallel path; the self-loop introduces vertex 5.
			batch := []StreamEdge{{U: 5, LU: "person", V: 5, LV: "person"}}
			for i := int64(100); len(batch) < 80; i++ {
				batch = append(batch, StreamEdge{U: i, LU: "person", V: i + 1, LV: "person"})
			}
			if err := p.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			nv, ne, _ := p.GraphSize()
			if _, err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			q, _, err := OpenFS(fs, opt, socialWorkload())
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			if v, e, _ := q.GraphSize(); v != nv || e != ne {
				t.Fatalf("GraphSize after reopen = (%d, %d), want (%d, %d)", v, e, nv, ne)
			}
			err = q.AddEdgeE(5, "city", 6, "person")
			if err == nil {
				t.Fatal("conflicting label for self-loop vertex 5 accepted after reopen")
			}
			if !errors.Is(q.Err(), err) {
				t.Fatalf("sticky Err = %v, want %v", q.Err(), err)
			}
			for _, v := range []int64{5, 6} {
				if part, ok := q.PartitionOf(v); ok {
					t.Errorf("PartitionOf(%d) = %d, want not found", v, part)
				}
			}
		})
	}
}

// FuzzRestoreCheckpoint restores arbitrary bytes as a checkpoint payload
// into a fresh partitioner, with graph recording on and off. A restore may
// fail but must never panic; a restore that succeeds must re-encode to a
// fixed point (encode, restore that, encode again: equal bytes).
func FuzzRestoreCheckpoint(f *testing.F) {
	_, edges, opt := faultStream(f)
	opt.WALDir = ""
	opt.Workers = 1
	opt, err := opt.normalise()
	if err != nil {
		f.Fatal(err)
	}
	// Each partitioner gets its own workload: AddQuery, and restoring a
	// query tail, add to it.
	fresh := func(tb testing.TB, record bool) *Partitioner {
		o := opt
		o.DisableGraphRecording = !record
		wl, err := DatasetWorkload("dblp")
		if err != nil {
			tb.Fatal(err)
		}
		p, err := newLoom(o, wl, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	seed := func(record bool, build func(p *Partitioner)) {
		p := fresh(f, record)
		build(p)
		payload, err := p.encodeCheckpointLocked()
		if err != nil {
			f.Fatal(err)
		}
		if err := fresh(f, record).restoreCheckpoint(payload); err != nil {
			f.Fatalf("seed does not restore: %v", err)
		}
		f.Add(payload)
	}
	ingest := func(p *Partitioner, es []StreamEdge) {
		if err := p.AddBatch(es); err != nil {
			f.Fatal(err)
		}
	}
	seed(true, func(p *Partitioner) { ingest(p, edges); p.Flush() }) // empty window
	seed(true, func(p *Partitioner) {
		ingest(p, edges)
		if p.loom.Window().NumMatches() == 0 {
			f.Fatal("mid-stream seed has no live matches")
		}
	})
	seed(true, func(p *Partitioner) {
		ingest(p, edges[:60])
		if err := p.AddQuery("tail", Path("Person", "Paper", "Venue"), 0.2); err != nil {
			f.Fatal(err)
		}
		ingest(p, edges[60:])
	})
	seed(false, func(p *Partitioner) { ingest(p, edges) })

	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, record := range []bool{true, false} {
			p := fresh(t, record)
			if p.restoreCheckpoint(payload) != nil {
				continue
			}
			enc, err := p.encodeCheckpointLocked()
			if err != nil {
				t.Fatal(err)
			}
			q := fresh(t, record)
			if err := q.restoreCheckpoint(enc); err != nil {
				t.Fatalf("recording=%v: re-encoded checkpoint does not restore: %v", record, err)
			}
			if again, err := q.encodeCheckpointLocked(); err != nil || !bytes.Equal(enc, again) {
				t.Fatalf("recording=%v: encoding is not a fixed point (%d vs %d bytes)", record, len(enc), len(again))
			}
		}
	})
}

// TestCheckpointBytesGolden pins the checkpoint payload byte for byte:
// each layer encodes its own section, and moving a field, changing a
// width or reordering a section changes these hashes. The setups cover
// an empty window, live matches, a query tail, recording off and a
// subscribed partitioner carrying a sticky error.
func TestCheckpointBytesGolden(t *testing.T) {
	_, edges, opt := faultStream(t)
	opt.WALDir = ""
	opt.Workers = 1
	ingest := func(t *testing.T, p *Partitioner, es []StreamEdge) {
		t.Helper()
		if err := p.AddBatch(es); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		workers int
		record  bool
		build   func(t *testing.T, p *Partitioner)
		size    int
		sum     string
	}{
		{"flushed", 1, true, func(t *testing.T, p *Partitioner) { ingest(t, p, edges); p.Flush() },
			5067, "636bc1bac6569efaceceac6740c547fb06722c6b91236c19653764784400f95f"},
		{"midstream", 1, true, func(t *testing.T, p *Partitioner) { ingest(t, p, edges) },
			9183, "d881fec94d811bb43067fa2ce729e8cbabec7cd702d868294d0201e5a7dd8568"},
		{"midstream", 4, true, func(t *testing.T, p *Partitioner) { ingest(t, p, edges) },
			9183, "d881fec94d811bb43067fa2ce729e8cbabec7cd702d868294d0201e5a7dd8568"},
		{"tail", 1, true, func(t *testing.T, p *Partitioner) {
			ingest(t, p, edges[:60])
			if err := p.AddQuery("tail", Path("Person", "Paper", "Venue"), 0.2); err != nil {
				t.Fatal(err)
			}
			ingest(t, p, edges[60:])
		}, 8696, "cb5c55953524b779f6b79b9a36e7fee3e531dc8820b776661a348f9b94f487c9"},
		{"norecord", 1, false, func(t *testing.T, p *Partitioner) { ingest(t, p, edges) },
			8219, "8dee886b23a45fb38de330048abb997acef64ba3c8c5a567fdbf7bea5635b348"},
		{"sub+err", 1, true, func(t *testing.T, p *Partitioner) {
			p.Subscribe(func(PlacementEvent) {})
			ingest(t, p, edges[:60])
			if err := p.AddEdgeE(edges[0].U, "Bogus", 999999, "Person"); err == nil {
				t.Fatal("conflicting label accepted")
			}
			ingest(t, p, edges[60:])
		}, 9250, "47538503d245589b4b2ea88e609cca8cb2b60acdaba728a851e524a9526406a7"},
	} {
		t.Run(fmt.Sprintf("%s/workers=%d", tc.name, tc.workers), func(t *testing.T) {
			o := opt
			o.Workers = tc.workers
			o.DisableGraphRecording = !tc.record
			o, err := o.normalise()
			if err != nil {
				t.Fatal(err)
			}
			wl, err := DatasetWorkload("dblp")
			if err != nil {
				t.Fatal(err)
			}
			p, err := newLoom(o, wl, nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.build(t, p)
			payload, err := p.encodeCheckpointLocked()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(payload)
			if len(payload) != tc.size || hex.EncodeToString(sum[:]) != tc.sum {
				t.Fatalf("checkpoint is %d B, sha256 %x; want %d B, %s", len(payload), sum, tc.size, tc.sum)
			}
		})
	}
}
