package bench

// The chaos experiment drives the self-healing serving tier through
// scripted WAL faults — a primary killed mid-write, segments pruned out
// from under the follower, a flipped bit in a tailed segment, bursts of
// transient read errors, and a disk that bounces fsyncs — and asserts
// the machine converges every time: the supervised follower returns to
// Healthy, every routed vertex answers identically to an uninterrupted
// reference partition of the same stream, and no probe ever observes a
// wrong (as opposed to merely missing) route. Placements are write-once
// and replay is bit-exact, so any Found answer that disagrees with the
// reference is a real serving bug, not staleness.

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"loom"
	"loom/internal/wal"
	"loom/router"
)

// ChaosRow summarises one fault scenario against the supervised
// follower.
type ChaosRow struct {
	Scenario string `json:"scenario"`
	Edges    int    `json:"edges"`

	Polls        uint64   `json:"polls"`
	Transients   uint64   `json:"transients"`
	Gaps         uint64   `json:"gaps"`
	Corruptions  uint64   `json:"corruptions"`
	Rebootstraps uint64   `json:"rebootstraps"`
	Quarantined  []string `json:"quarantined,omitempty"`

	// DowntimeMs is time outside Healthy after first reaching it —
	// staleness exposure, not unavailability (routing serves throughout).
	DowntimeMs float64 `json:"downtime_ms"`
	// HealMs is fault-clear → Healthy and fully converged.
	HealMs float64 `json:"heal_ms"`

	RoutesChecked int64 `json:"routes_checked"`
	WrongRoutes   int64 `json:"wrong_routes"`
	Converged     bool  `json:"converged"`
}

// ChaosDurabilityRow summarises the primary-side breaker scenario: an
// opted-in DegradeToMemory primary rides out a disk that bounces every
// fsync, reports the exact durable watermark, and re-arms on a
// checkpoint once the disk recovers.
type ChaosDurabilityRow struct {
	Edges        int    `json:"edges"`
	WatermarkLSN uint64 `json:"watermark_lsn"` // reported by DurabilityLost
	ExpectedLSN  uint64 `json:"expected_lsn"`  // records durable before the fault
	IngestLive   bool   `json:"ingest_live"`   // ingest kept accepting while degraded
	ReArmed      bool   `json:"rearmed"`       // checkpoint cleared the breaker
	RecoveredOK  bool   `json:"recovered_ok"`  // reopened state matches the reference
}

// ChaosReport is the output of RunChaos.
type ChaosReport struct {
	Dataset    string               `json:"dataset"`
	Seed       int64                `json:"seed"`
	K          int                  `json:"k"`
	WindowSize int                  `json:"window_size"`
	Short      bool                 `json:"short"`
	Scenarios  []ChaosRow           `json:"scenarios"`
	Durability []ChaosDurabilityRow `json:"durability"`
}

// chaosRig is one scenario's world: a primary and a supervised follower
// sharing a fault-scriptable in-memory filesystem, a reference
// assignment from an uninterrupted run of the same stream, and probe
// goroutines routing against the mirror throughout the fault.
type chaosRig struct {
	fs     *wal.MemFS
	wl     *loom.Workload
	stream []loom.StreamEdge
	opt    loom.Options
	ref    map[int64]int

	p   *loom.Partitioner
	m   *router.Mirror
	sup *router.Supervisor

	cancel  context.CancelFunc
	runDone chan error

	checked   atomic.Int64
	wrong     atomic.Int64
	stopProbe chan struct{}
	probeDone chan struct{}
}

const chaosProbes = 2

// newChaosRig generates the stream, runs the uninterrupted reference
// partitioner over it, and opens the primary on a fresh MemFS.
func newChaosRig(ds string, cfg Config, edgesCap, keepCkpts int) (*chaosRig, error) {
	stream, err := loom.GenerateDataset(ds, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	stream, err = loom.OrderStream(stream, "bfs", cfg.Seed)
	if err != nil {
		return nil, err
	}
	if len(stream) > edgesCap {
		stream = stream[:edgesCap]
	}
	wl, err := loom.DatasetWorkload(ds)
	if err != nil {
		return nil, err
	}
	seen := map[int64]bool{}
	for _, e := range stream {
		seen[e.U], seen[e.V] = true, true
	}
	r := &chaosRig{
		fs:     wal.NewMemFS(),
		wl:     wl,
		stream: stream,
		opt: loom.Options{
			Partitions:            cfg.K,
			ExpectedVertices:      len(seen),
			WindowSize:            cfg.WindowSize,
			Seed:                  cfg.Seed,
			DisableGraphRecording: true,
			WALDir:                "wal",
			// One edge per record, every record durable on accept: LSNs
			// map 1:1 onto stream positions, which makes kill points and
			// watermarks exact. Small segments force rotation so faults
			// span real segment chains.
			WALSync:            loom.WALSyncAlways,
			WALSegmentBytes:    4096,
			WALKeepCheckpoints: keepCkpts,
		},
	}

	// Reference: the same stream, uninterrupted, no WAL.
	refOpt := r.opt
	refOpt.WALDir = ""
	refOpt.WALSync = 0
	refOpt.WALSegmentBytes = 0
	refOpt.WALKeepCheckpoints = 0
	refp, err := loom.New(refOpt, wl)
	if err != nil {
		return nil, err
	}
	for i := range stream {
		if err := refp.AddBatch(stream[i : i+1]); err != nil {
			return nil, err
		}
	}
	refp.Flush()
	if err := refp.Err(); err != nil {
		return nil, err
	}
	r.ref = make(map[int64]int)
	refp.Snapshot().Each(func(v int64, part int) { r.ref[v] = part })

	r.p, _, err = loom.OpenFS(r.fs, r.opt, wl)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ingest streams stream[from:to] into the primary, one edge per record.
func (r *chaosRig) ingest(from, to int) error {
	for i := from; i < to; i++ {
		if err := r.p.AddBatch(r.stream[i : i+1]); err != nil {
			return err
		}
	}
	return nil
}

// startSupervised boots the mirror + supervisor over the shared FS and
// launches probe goroutines that route random stream vertices against
// the mirror for the scenario's whole lifetime, verifying every Found
// answer against the reference.
func (r *chaosRig) startSupervised() {
	r.m = router.New()
	r.sup = router.NewSupervisor(r.m, func() (*loom.Follower, loom.RecoveryInfo, error) {
		return loom.FollowFS(r.fs, r.opt, r.wl)
	}, router.SupervisorConfig{
		Poll:       2 * time.Millisecond,
		BackoffMin: time.Millisecond,
		BackoffMax: 25 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.runDone = make(chan error, 1)
	go func() { r.runDone <- r.sup.Run(ctx) }()

	r.stopProbe = make(chan struct{})
	r.probeDone = make(chan struct{})
	for pr := 0; pr < chaosProbes; pr++ {
		pr := pr
		go func() {
			defer func() { r.probeDone <- struct{}{} }()
			for i := pr; ; i += 13 {
				select {
				case <-r.stopProbe:
					return
				default:
				}
				v := r.stream[i%len(r.stream)].U
				if d := r.m.Lookup(v); d.Found {
					r.checked.Add(1)
					if want, ok := r.ref[v]; !ok || want != d.Partition {
						r.wrong.Add(1)
					}
				}
			}
		}()
	}
}

// waitHealthy blocks until the supervisor reports Healthy (and cond, if
// non-nil, holds).
func (r *chaosRig) waitHealthy(what string, cond func() bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if r.sup.State() == router.StateHealthy && (cond == nil || cond()) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("chaos: timed out waiting for %s (state %s)", what, r.sup.State())
}

// finish flushes the primary, waits for the follower to converge on the
// reference assignment, runs the final route-equality check over every
// reference vertex, and tears the rig down into a ChaosRow.
func (r *chaosRig) finish(row *ChaosRow) error {
	r.p.Flush()
	if err := r.p.Err(); err != nil {
		return fmt.Errorf("chaos: primary: %w", err)
	}
	want := len(r.ref)
	err := r.waitHealthy("convergence", func() bool {
		fp := r.sup.Partitioner()
		return fp != nil && fp.Snapshot().NumAssigned() == want
	})
	if err != nil {
		return err
	}
	// Every reference vertex must route to exactly the reference
	// partition — wrong-vs-stale is the line this harness polices.
	for v, part := range r.ref {
		d := r.m.Lookup(v)
		r.checked.Add(1)
		if !d.Found || d.Partition != part {
			r.wrong.Add(1)
		}
	}
	close(r.stopProbe)
	for i := 0; i < chaosProbes; i++ {
		<-r.probeDone
	}
	r.cancel()
	if err := <-r.runDone; err != nil {
		return fmt.Errorf("chaos: supervisor run: %w", err)
	}

	st := r.sup.Stats()
	row.Edges = len(r.stream)
	row.Polls = st.Polls
	row.Transients = st.Transients
	row.Gaps = st.Gaps
	row.Corruptions = st.Corruptions
	row.Rebootstraps = st.Rebootstraps
	row.Quarantined = st.Quarantined
	row.DowntimeMs = float64(r.sup.Downtime().Nanoseconds()) / 1e6
	row.RoutesChecked = r.checked.Load()
	row.WrongRoutes = r.wrong.Load()
	row.Converged = st.State == "healthy"
	return nil
}

// chaosPrimaryKill tears the primary mid-record (write budget exhausts
// partway through a frame), resolves the crash as a process kill, and
// resumes ingest from a reopened primary at exactly the durable LSN. The
// follower rides through on transient classification alone.
func chaosPrimaryKill(ds string, cfg Config, edgesCap int) (ChaosRow, error) {
	row := ChaosRow{Scenario: "primary-kill"}
	r, err := newChaosRig(ds, cfg, edgesCap, 2)
	if err != nil {
		return row, err
	}
	third := len(r.stream) / 3
	if err := r.ingest(0, third); err != nil {
		return row, err
	}
	if _, err := r.p.Checkpoint(); err != nil {
		return row, err
	}
	r.startSupervised()
	if err := r.waitHealthy("initial catch-up", nil); err != nil {
		return row, err
	}

	// kill -9 partway through the next record's frame.
	r.fs.SetBudget(5)
	if err := r.ingest(third, third+1); err == nil {
		return row, fmt.Errorf("chaos: primary survived its kill")
	}
	healFrom := time.Now()
	r.fs.CrashKeep() // the machine stayed up; written bytes survive

	p2, info, err := loom.OpenFS(r.fs, r.opt, r.wl)
	if err != nil {
		return row, fmt.Errorf("chaos: reopen primary: %w", err)
	}
	r.p = p2
	// One edge per record: the durable LSN is the stream position.
	if err := r.ingest(int(info.LastLSN), len(r.stream)); err != nil {
		return row, err
	}
	if err := r.finish(&row); err != nil {
		return row, err
	}
	row.HealMs = float64(time.Since(healFrom).Nanoseconds()) / 1e6
	if row.Rebootstraps != 0 {
		return row, fmt.Errorf("chaos: primary-kill forced %d re-bootstraps (want 0: the log never gapped)", row.Rebootstraps)
	}
	return row, nil
}

// chaosPruneGap stalls the follower with unlimited read faults while the
// primary checkpoints twice and prunes the segments the follower still
// needs; recovery requires an automatic re-bootstrap.
func chaosPruneGap(ds string, cfg Config, edgesCap int) (ChaosRow, error) {
	row := ChaosRow{Scenario: "prune-gap"}
	r, err := newChaosRig(ds, cfg, edgesCap, 1) // keep 1 checkpoint: prune hard
	if err != nil {
		return row, err
	}
	third := len(r.stream) / 3
	if err := r.ingest(0, third); err != nil {
		return row, err
	}
	if _, err := r.p.Checkpoint(); err != nil {
		return row, err
	}
	r.startSupervised()
	if err := r.waitHealthy("initial catch-up", nil); err != nil {
		return row, err
	}

	r.fs.SetReadFault(".seg", -1, nil)
	if err := r.ingest(third, 2*third); err != nil {
		return row, err
	}
	if _, err := r.p.Checkpoint(); err != nil {
		return row, err
	}
	if err := r.ingest(2*third, len(r.stream)); err != nil {
		return row, err
	}
	if _, err := r.p.Checkpoint(); err != nil {
		return row, err
	}
	r.fs.SetReadFault("", 0, nil)
	healFrom := time.Now()
	if err := r.finish(&row); err != nil {
		return row, err
	}
	row.HealMs = float64(time.Since(healFrom).Nanoseconds()) / 1e6
	if row.Rebootstraps == 0 || row.Gaps == 0 {
		return row, fmt.Errorf("chaos: prune-gap healed without a re-bootstrap (%+v)", row)
	}
	return row, nil
}

// chaosBitFlip rots one bit in a rotated, unconsumed segment while the
// follower is stalled; the supervisor must classify it as corruption,
// quarantine the segment by name, and re-bootstrap from the checkpoint
// written past the damage.
func chaosBitFlip(ds string, cfg Config, edgesCap int) (ChaosRow, error) {
	row := ChaosRow{Scenario: "bit-flip"}
	r, err := newChaosRig(ds, cfg, edgesCap, 8) // retain checkpoints: no pruning
	if err != nil {
		return row, err
	}
	third := len(r.stream) / 3
	if err := r.ingest(0, third); err != nil {
		return row, err
	}
	if _, err := r.p.Checkpoint(); err != nil {
		return row, err
	}
	r.startSupervised()
	if err := r.waitHealthy("initial catch-up", nil); err != nil {
		return row, err
	}

	r.fs.SetReadFault(".seg", -1, nil)
	countSegs := func() []string {
		var segs []string
		for _, n := range r.fs.DumpNames() {
			if strings.HasSuffix(n, ".seg") {
				segs = append(segs, n)
			}
		}
		return segs
	}
	before := len(countSegs())
	i := third
	for ; i < len(r.stream) && len(countSegs()) < before+3; i++ {
		if err := r.ingest(i, i+1); err != nil {
			return row, err
		}
	}
	segs := countSegs()
	if len(segs) < before+3 {
		return row, fmt.Errorf("chaos: stream too small to rotate segments (%d -> %d)", before, len(segs))
	}
	victim := segs[len(segs)-2]
	if err := r.fs.FlipBit(victim, r.fs.Size(victim)-3); err != nil {
		return row, err
	}
	if err := r.ingest(i, len(r.stream)); err != nil {
		return row, err
	}
	// A checkpoint past the damage gives re-bootstrap its clean entry.
	if _, err := r.p.Checkpoint(); err != nil {
		return row, err
	}
	r.fs.SetReadFault("", 0, nil)
	healFrom := time.Now()
	if err := r.finish(&row); err != nil {
		return row, err
	}
	row.HealMs = float64(time.Since(healFrom).Nanoseconds()) / 1e6
	if row.Corruptions == 0 || row.Rebootstraps == 0 || len(row.Quarantined) == 0 {
		return row, fmt.Errorf("chaos: bit-flip not quarantined (%+v)", row)
	}
	return row, nil
}

// chaosTransientReads injects a bounded burst of read errors mid-follow;
// the supervisor must absorb them on the same follower — degraded, then
// healthy, zero re-bootstraps.
func chaosTransientReads(ds string, cfg Config, edgesCap int) (ChaosRow, error) {
	row := ChaosRow{Scenario: "transient-reads"}
	r, err := newChaosRig(ds, cfg, edgesCap, 2)
	if err != nil {
		return row, err
	}
	half := len(r.stream) / 2
	if err := r.ingest(0, half); err != nil {
		return row, err
	}
	if _, err := r.p.Checkpoint(); err != nil {
		return row, err
	}
	r.startSupervised()
	if err := r.waitHealthy("initial catch-up", nil); err != nil {
		return row, err
	}

	r.fs.SetReadFault(".seg", 5, nil)
	healFrom := time.Now()
	if err := r.ingest(half, len(r.stream)); err != nil {
		return row, err
	}
	if err := r.finish(&row); err != nil {
		return row, err
	}
	row.HealMs = float64(time.Since(healFrom).Nanoseconds()) / 1e6
	if row.Transients < 5 {
		return row, fmt.Errorf("chaos: expected >= 5 transient faults, saw %d", row.Transients)
	}
	if row.Rebootstraps != 0 || row.Gaps != 0 || row.Corruptions != 0 {
		return row, fmt.Errorf("chaos: transient burst escalated (%+v)", row)
	}
	return row, nil
}

// chaosDurability runs the primary-side breaker: a DegradeToMemory
// primary whose disk starts bouncing every fsync mid-stream must keep
// accepting ingest, report the exact durable watermark, re-arm via a
// checkpoint once the disk recovers, and reopen bit-identically.
func chaosDurability(ds string, cfg Config, edgesCap int) (ChaosDurabilityRow, error) {
	row := ChaosDurabilityRow{}
	r, err := newChaosRig(ds, cfg, edgesCap, 2)
	if err != nil {
		return row, err
	}
	r.p.Close()
	opt := r.opt
	opt.WALFailure = loom.DegradeToMemory
	opt.WALAppendRetries = -1 // first failure trips the breaker: watermark is exact
	fs := wal.NewMemFS()
	p, _, err := loom.OpenFS(fs, opt, r.wl)
	if err != nil {
		return row, err
	}
	r.fs, r.p = fs, p
	row.Edges = len(r.stream)

	cut := len(r.stream) / 2
	if err := r.ingest(0, cut); err != nil {
		return row, err
	}
	fs.SetSyncFault(".seg", -1, nil)
	if err := r.ingest(cut, 3*len(r.stream)/4); err != nil {
		return row, fmt.Errorf("chaos: degraded primary refused ingest: %w", err)
	}
	row.IngestLive = true
	derr, lsn := p.DurabilityLost()
	if derr == nil {
		return row, fmt.Errorf("chaos: breaker never tripped")
	}
	row.WatermarkLSN = lsn
	row.ExpectedLSN = uint64(cut) // one edge per durable record before the fault
	fs.SetSyncFault("", 0, nil)
	if _, err := p.Checkpoint(); err != nil {
		return row, fmt.Errorf("chaos: re-arming checkpoint: %w", err)
	}
	if derr, _ := p.DurabilityLost(); derr == nil {
		row.ReArmed = true
	}
	if err := r.ingest(3*len(r.stream)/4, len(r.stream)); err != nil {
		return row, err
	}
	p.Flush()
	if err := p.Close(); err != nil {
		return row, err
	}

	p2, _, err := loom.OpenFS(fs, opt, r.wl)
	if err != nil {
		return row, fmt.Errorf("chaos: reopen after re-arm: %w", err)
	}
	defer p2.Close()
	snap := p2.Snapshot()
	ok := snap.NumAssigned() == len(r.ref)
	if ok {
		snap.Each(func(v int64, part int) {
			if r.ref[v] != part {
				ok = false
			}
		})
	}
	row.RecoveredOK = ok
	if !ok {
		return row, fmt.Errorf("chaos: recovered state diverges from reference (%d vs %d placements)",
			snap.NumAssigned(), len(r.ref))
	}
	return row, nil
}

// RunChaos runs every fault scenario. short trims the stream so the
// suite fits a unit-test run (TestRunChaos).
func RunChaos(cfg Config, short bool) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	edgesCap := 4000
	if short {
		edgesCap = 1500
	}
	ds := cfg.Datasets[0]
	rep := &ChaosReport{
		Dataset:    ds,
		Seed:       cfg.Seed,
		K:          cfg.K,
		WindowSize: cfg.WindowSize,
		Short:      short,
	}
	for _, sc := range []func(string, Config, int) (ChaosRow, error){
		chaosPrimaryKill, chaosPruneGap, chaosBitFlip, chaosTransientReads,
	} {
		row, err := sc(ds, cfg, edgesCap)
		if err != nil {
			return nil, err
		}
		if row.WrongRoutes != 0 {
			return nil, fmt.Errorf("chaos: %s served %d wrong routes of %d checked",
				row.Scenario, row.WrongRoutes, row.RoutesChecked)
		}
		rep.Scenarios = append(rep.Scenarios, row)
	}
	drow, err := chaosDurability(ds, cfg, edgesCap)
	if err != nil {
		return nil, err
	}
	if drow.WatermarkLSN != drow.ExpectedLSN {
		return nil, fmt.Errorf("chaos: durability watermark LSN %d, want exactly %d",
			drow.WatermarkLSN, drow.ExpectedLSN)
	}
	rep.Durability = append(rep.Durability, drow)
	return rep, nil
}

// RenderChaos writes the report as aligned text tables.
func RenderChaos(w io.Writer, rep *ChaosReport) {
	fmt.Fprintf(w, "Chaos: supervised -follow replica under scripted WAL faults (%s, k %d, window %d%s)\n",
		rep.Dataset, rep.K, rep.WindowSize, map[bool]string{true: ", short", false: ""}[rep.Short])
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tedges\tpolls\ttransients\tgaps\tcorrupt\treboots\tquarantined\tdowntime ms\theal ms\troutes ok/checked")
	for _, r := range rep.Scenarios {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%.1f\t%.1f\t%d/%d\n",
			r.Scenario, r.Edges, r.Polls, r.Transients, r.Gaps, r.Corruptions, r.Rebootstraps,
			strings.Join(r.Quarantined, ","), r.DowntimeMs, r.HealMs,
			r.RoutesChecked-r.WrongRoutes, r.RoutesChecked)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nDurability breaker: DegradeToMemory primary over a disk bouncing every fsync")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "edges\twatermark lsn\texpected\tingest live\tre-armed\trecovered ok")
	for _, d := range rep.Durability {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%v\t%v\n",
			d.Edges, d.WatermarkLSN, d.ExpectedLSN, d.IngestLive, d.ReArmed, d.RecoveredOK)
	}
	tw.Flush()
}
