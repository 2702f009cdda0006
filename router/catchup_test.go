package router

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"loom"
)

// shipDir copies a synced WAL directory — the state-shipping step a real
// deployment does with an object store or rsync. The files are
// CRC-framed, so a torn copy is detected at the replica, not replayed.
func shipDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLateReplicaSpliceMatchesPrimary is the serving tier's core
// guarantee, verified under -race: a replica that joins late — recovering
// a mid-stream checkpoint plus WAL tail from a shipped directory, then
// splicing its mirror onto the live event feed via Attach — answers every
// routed lookup identically to the primary's final assignment, and its
// mid-catch-up answers already agree with the primary while the primary
// is still ingesting.
func TestLateReplicaSpliceMatchesPrimary(t *testing.T) {
	wl, err := loom.DatasetWorkload("dblp")
	if err != nil {
		t.Fatalf("DatasetWorkload: %v", err)
	}
	edges, err := loom.GenerateDataset("dblp", 3000, 7)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	root := t.TempDir()
	opt := loom.Options{
		Partitions:       4,
		ExpectedVertices: 4000,
		WindowSize:       256,
		WALDir:           filepath.Join(root, "primary"),
	}
	p, _, err := loom.Open(opt, wl)
	if err != nil {
		t.Fatalf("Open primary: %v", err)
	}
	defer p.Close()

	// half: checkpoint position. ship: where the directory is copied; the
	// replica bootstraps from checkpoint@half + logged tail (half..ship).
	half, ship := len(edges)/2, 5*len(edges)/6
	const producers, batchSize = 4, 128

	// Four producers stream disjoint shards of the first half.
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		shard := edges[w*half/producers : (w+1)*half/producers]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(shard); i += batchSize {
				end := min(i+batchSize, len(shard))
				if err := p.AddBatch(shard[i:end]); err != nil {
					t.Errorf("AddBatch: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if _, err := p.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := half; i < ship; i += batchSize {
		end := min(i+batchSize, ship)
		if err := p.AddBatch(edges[i:end]); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	shipDir(t, opt.WALDir, filepath.Join(root, "replica"))

	// The primary keeps ingesting the last sixth while the late replica
	// bootstraps from the shipped copy.
	liveDone := make(chan struct{})
	go func() {
		defer close(liveDone)
		for i := ship; i < len(edges); i += batchSize {
			end := min(i+batchSize, len(edges))
			if err := p.AddBatch(edges[i:end]); err != nil {
				t.Errorf("AddBatch live tail: %v", err)
			}
		}
	}()

	ropt := opt
	ropt.WALDir = filepath.Join(root, "replica")
	replica, info, err := loom.Open(ropt, wl)
	if err != nil {
		t.Fatalf("Open replica: %v", err)
	}
	defer replica.Close()
	if !info.Recovered || info.CheckpointLSN == 0 || info.ReplayedRecords == 0 {
		t.Fatalf("replica did not bootstrap from checkpoint + tail: %+v", info)
	}

	// Attach splices the mirror mid-stream: the pinned generation covers
	// everything recovered from the shipped state, the live feed covers
	// everything the replica ingests from here on.
	m := New()
	m.Attach(replica)
	if !m.Ready() {
		t.Fatal("mirror not ready after Attach")
	}

	// Mid-catch-up agreement, while the primary is still ingesting:
	// placements are write-once, so every vertex the replica recovered
	// must route exactly where the live primary put it.
	rsnap := replica.Snapshot()
	if rsnap.NumAssigned() == 0 {
		t.Fatal("replica recovered no placements")
	}
	rsnap.Each(func(v int64, part int) {
		if d := m.Lookup(v); !d.Found || d.Partition != part {
			t.Fatalf("mid-catch-up Lookup(%d) = %+v, want partition %d", v, d, part)
		}
		if got, ok := p.PartitionOf(v); !ok || got != part {
			t.Fatalf("replica placed %d in %d, live primary says %d (ok=%v)", v, part, got, ok)
		}
	})

	// Replica tails the rest of the stream (in a deployment: the shipped
	// segments the primary wrote after the copy) with concurrent lookups
	// hammering the mirror — the -race half of the guarantee.
	queryDone := make(chan struct{})
	var reads sync.WaitGroup
	for r := 0; r < 2; r++ {
		reads.Add(1)
		go func(seed int64) {
			defer reads.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-queryDone:
					return
				default:
					m.Lookup(edges[rng.Intn(len(edges))].U)
					m.Pin(replica.Snapshot())
				}
			}
		}(int64(r))
	}
	for i := ship; i < len(edges); i += batchSize {
		end := min(i+batchSize, len(edges))
		if err := replica.AddBatch(edges[i:end]); err != nil {
			t.Fatalf("replica AddBatch: %v", err)
		}
	}
	replica.Flush()
	close(queryDone)
	reads.Wait()

	<-liveDone
	p.Flush()
	if err := p.Err(); err != nil {
		t.Fatalf("primary error: %v", err)
	}
	if err := replica.Err(); err != nil {
		t.Fatalf("replica error: %v", err)
	}

	// Every routed answer matches the primary's final assignment.
	final := p.Snapshot()
	if got := replica.Snapshot().NumAssigned(); got != final.NumAssigned() {
		t.Fatalf("replica finished with %d placements, primary %d", got, final.NumAssigned())
	}
	final.Each(func(v int64, part int) {
		if d := m.Lookup(v); !d.Found || d.Partition != part {
			t.Fatalf("final Lookup(%d) = %+v, want partition %d", v, d, part)
		}
	})
	if st := m.Stats(); st.Gaps != 0 || st.Lost != 0 {
		t.Fatalf("splice produced event gaps: %+v", st)
	}
}

// TestFollowerMirrorTailsPrimary runs the -follow serving mode: a
// read-only loom.Follow over the primary's own WAL directory, polled
// while the primary is still appending, with a mirror attached to the
// follower's event feed and lookups racing the polls. Once the primary
// closes, the caught-up mirror must agree with its final assignment.
func TestFollowerMirrorTailsPrimary(t *testing.T) {
	wl, err := loom.DatasetWorkload("dblp")
	if err != nil {
		t.Fatalf("DatasetWorkload: %v", err)
	}
	edges, err := loom.GenerateDataset("dblp", 2400, 21)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	opt := loom.Options{
		Partitions:       4,
		ExpectedVertices: 4000,
		WindowSize:       256,
		WALDir:           t.TempDir(),
		// Every accepted call is immediately durable and thus visible to
		// the tailer; no group-commit staging between the processes.
		WALSync: loom.WALSyncAlways,
	}
	p, _, err := loom.Open(opt, wl)
	if err != nil {
		t.Fatalf("Open primary: %v", err)
	}

	// First half lands before the follower exists; checkpoint so the
	// follower bootstraps mid-stream instead of replaying from LSN 1.
	half := len(edges) / 2
	const batchSize = 128
	for i := 0; i < half; i += batchSize {
		end := min(i+batchSize, half)
		if err := p.AddBatch(edges[i:end]); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	f, info, err := loom.Follow(opt, wl)
	if err != nil {
		t.Fatalf("Follow: %v", err)
	}
	defer f.Close()
	if !info.Recovered || info.CheckpointLSN == 0 {
		t.Fatalf("follower did not bootstrap from the checkpoint: %+v", info)
	}

	m := New()
	m.Attach(f.Partitioner())

	// Primary streams the second half while the follower polls and two
	// readers route against the mirror.
	primaryDone := make(chan struct{})
	go func() {
		defer close(primaryDone)
		for i := half; i < len(edges); i += batchSize {
			end := min(i+batchSize, len(edges))
			if err := p.AddBatch(edges[i:end]); err != nil {
				t.Errorf("primary AddBatch: %v", err)
			}
		}
		p.Flush()
	}()
	stopReads := make(chan struct{})
	var reads sync.WaitGroup
	for r := 0; r < 2; r++ {
		reads.Add(1)
		go func(seed int64) {
			defer reads.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopReads:
					return
				default:
					m.Lookup(edges[rng.Intn(len(edges))].V)
				}
			}
		}(int64(100 + r))
	}
	for alive := true; alive; {
		select {
		case <-primaryDone:
			alive = false
		default:
		}
		if _, err := f.Poll(); err != nil {
			t.Fatalf("Poll: %v", err)
		}
	}
	if err := p.Close(); err != nil { // final sync: everything is on disk
		t.Fatalf("Close primary: %v", err)
	}
	for {
		n, err := f.Poll()
		if err != nil {
			t.Fatalf("final Poll: %v", err)
		}
		if n == 0 {
			break
		}
	}
	close(stopReads)
	reads.Wait()

	// The follower's partitioner refuses direct ingest.
	if err := f.Partitioner().AddBatch(edges[:1]); err == nil {
		t.Fatal("follower accepted direct AddBatch")
	}
	if err := f.Partitioner().AddQuery("late", loom.Path("Person", "Paper"), 0.1); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower AddQuery = %v, want the read-only error", err)
	}
	f.Partitioner().Flush() // a silent no-op on a follower
	if err := f.Partitioner().Err(); err != nil {
		t.Fatalf("refused follower ingest latched the sticky Err: %v", err)
	}

	final := p.Snapshot()
	fp := f.Partitioner()
	if got := fp.Snapshot().NumAssigned(); got != final.NumAssigned() {
		t.Fatalf("follower holds %d placements, primary %d", got, final.NumAssigned())
	}
	// The mirror resolves pre-attach placements through the pinned
	// generation and post-attach ones through the live feed; re-pin once
	// so even flush-tail placements that raced the last poll resolve.
	m.Pin(fp.Snapshot())
	final.Each(func(v int64, part int) {
		if d := m.Lookup(v); !d.Found || d.Partition != part {
			t.Fatalf("follower Lookup(%d) = %+v, want partition %d", v, d, part)
		}
	})
	if st := m.Stats(); st.Gaps != 0 || st.Lost != 0 {
		t.Fatalf("follower feed produced gaps: %+v", st)
	}
}
