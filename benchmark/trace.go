package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark around its calls into a layer's public functions; the product
// code is not instrumented. N is the work count taken at the same boundary
// (edges, records, events, requests), so ratios are measured where the work
// happens.
type span struct {
	Run    string `json:"run"` // workload run id, shared by all spans of one run
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how the untraced run shares the traced
// run's code.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id with its work count and returns its duration.
func (t *tracer) end(id int, n int64) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.N = n
	return time.Duration(s.End - s.Start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
