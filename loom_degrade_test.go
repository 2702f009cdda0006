package loom

// Durability-degradation tests (self-healing serving tier): a primary
// whose disk starts bouncing fsyncs must not brick ingest when the
// operator opted into DegradeToMemory — placements keep flowing, the
// exact durability watermark is reported, and a checkpoint on a
// recovered disk re-arms the log.

import (
	"errors"
	"testing"

	"loom/internal/wal"
)

// ingestSingly streams edges one record per call so LSNs map 1:1 onto
// edges and the durability watermark is exact.
func ingestSingly(t *testing.T, p *Partitioner, edges []StreamEdge) {
	t.Helper()
	for i := range edges {
		if err := p.AddBatch(edges[i : i+1]); err != nil {
			t.Fatalf("AddBatch edge %d: %v", i, err)
		}
	}
}

func TestDegradeToMemoryKeepsIngestLive(t *testing.T) {
	wl, edges, opt := faultStream(t)
	opt.WALFailure = DegradeToMemory
	opt.WALAppendRetries = -1 // no retries: the first failure trips the breaker
	fs := wal.NewMemFS()
	p, _, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}

	ingestSingly(t, p, edges[:40])
	if err, lsn := p.DurabilityLost(); err != nil || lsn != 0 {
		t.Fatalf("healthy partitioner reports durability loss: %v @ %d", err, lsn)
	}

	// The disk starts bouncing every segment fsync. Ingest must keep
	// accepting — the breaker trips on the first failed append.
	fs.SetSyncFault(".seg", -1, nil)
	ingestSingly(t, p, edges[40:80])

	derr, lsn := p.DurabilityLost()
	if derr == nil {
		t.Fatal("DurabilityLost reports nothing after fsync failures")
	}
	// 40 single-edge records were durable under WALSyncAlways before the
	// fault: the watermark is exactly LSN 40.
	if lsn != 40 {
		t.Fatalf("durability watermark LSN = %d, want exactly 40", lsn)
	}
	if err := p.Sync(); err == nil {
		t.Fatal("Sync on a degraded partitioner did not error")
	}
	if n := p.Snapshot().NumAssigned(); n == 0 {
		t.Fatal("no placements despite in-memory ingest")
	}

	// Disk recovers: a checkpoint persists the full in-memory state
	// (superseding the torn tail), re-arms the log and closes the
	// breaker.
	fs.SetSyncFault("", 0, nil)
	if _, err := p.Checkpoint(); err != nil {
		t.Fatalf("re-arming Checkpoint: %v", err)
	}
	if err, lsn := p.DurabilityLost(); err != nil || lsn != 0 {
		t.Fatalf("breaker still tripped after checkpoint: %v @ %d", err, lsn)
	}
	ingestSingly(t, p, edges[80:])
	if err := p.Sync(); err != nil {
		t.Fatalf("Sync after re-arm: %v", err)
	}
	want := faultHash(p)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recovery over the re-armed directory reproduces the complete
	// stream — including the records that were never individually
	// durable, which the checkpoint carried.
	p2, info, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if !info.Recovered {
		t.Fatalf("nothing recovered: %+v", info)
	}
	if got := faultHash(p2); got != want {
		t.Fatalf("recovered state hash %x != pre-close %x", got, want)
	}
}

func TestFailStopPolicyStopsIngest(t *testing.T) {
	wl, edges, opt := faultStream(t) // default policy: FailStop
	opt.WALAppendRetries = -1
	fs := wal.NewMemFS()
	p, _, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	defer p.Close()

	ingestSingly(t, p, edges[:10])
	fs.SetSyncFault(".seg", -1, nil)
	if err := p.AddBatch(edges[10:11]); err == nil {
		t.Fatal("FailStop accepted an append the WAL rejected")
	}
	// The failure is sticky: later ingest refuses even if the disk heals,
	// because the rejected operation was never applied.
	fs.SetSyncFault("", 0, nil)
	if err := p.AddBatch(edges[11:12]); err == nil {
		t.Fatal("FailStop partitioner kept ingesting after a lost write")
	}
	if err, _ := p.DurabilityLost(); err != nil {
		t.Fatalf("FailStop reports DurabilityLost (its state never diverges): %v", err)
	}
}

func TestWALAppendRetriesAbsorbTransients(t *testing.T) {
	wl, edges, opt := faultStream(t) // FailStop + default 2 retries
	fs := wal.NewMemFS()
	p, _, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}

	ingestSingly(t, p, edges[:20])
	// One bounced fsync, then healthy: the retry inside the wal layer
	// absorbs it without surfacing anything.
	fs.SetSyncFault(".seg", 1, errors.New("eio"))
	ingestSingly(t, p, edges[20:40])
	if err := p.Sync(); err != nil {
		t.Fatalf("Sync after absorbed transient: %v", err)
	}
	if err, lsn := p.DurabilityLost(); err != nil || lsn != 0 {
		t.Fatalf("absorbed transient tripped the breaker: %v @ %d", err, lsn)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p2, _, err := OpenFS(fs, opt, wl)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if got := p2.Snapshot().NumAssigned(); got != p.Snapshot().NumAssigned() {
		t.Fatalf("recovered %d placements, want %d", got, p.Snapshot().NumAssigned())
	}
}
