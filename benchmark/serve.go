package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"loom"
	"loom/router"
)

// The steady-state phase is open-loop on both sides and the same for every
// workload; only the request mix differs (workloadSpec).
const (
	steadyBatch    = 256    // edges per AddBatch, each followed by Sync
	ingestRate     = 16_000 // offered edges per second
	ingestInterval = time.Second * steadyBatch / ingestRate
	requestRate    = 500 // offered requests per second on one keep-alive connection
	requestEvery   = time.Second / requestRate
	statsEvery     = 2 * time.Millisecond   // /stats poll on the second connection
	routeBatchIDs  = 64                     // ids per POST /route/batch
	followerPoll   = "10ms"                 // loom-router -poll: pinned so the lag measures the code, not the knob
	closedSlice    = 100 * time.Millisecond // phase C is reported as its median slice
	lateLimit      = 5 * time.Millisecond   // generator lateness p99 above this gets a warning in the output
)

// routerChild is the cmd/loom-router process under test.
type routerChild struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	log  *tailBuffer
}

// tailBuffer keeps the last lines a child wrote, for error reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (b *tailBuffer) add(line string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.lines) >= 40 {
		b.lines = b.lines[1:]
	}
	b.lines = append(b.lines, line)
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}

var servingOn = regexp.MustCompile(`serving on (\S+)`)

// startRouter spawns loom-router as a supervised follower of walDir with
// flags reproducing the primary's option fingerprint, and waits for its
// listen address. The child dies with this process even on SIGKILL.
func startRouter(bin, dataset string, vertices int, walDir string) (*routerChild, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-dataset", dataset,
		"-k", strconv.Itoa(partitions), "-vertices", strconv.Itoa(vertices), "-window", strconv.Itoa(windowSize),
		"-wal", walDir, "-follow", "-poll", followerPoll)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	// Pdeathsig is delivered when the creating thread exits, so the thread
	// that forks must be one the runtime never retires: the locked one.
	runtime.LockOSThread()
	err = cmd.Start()
	runtime.UnlockOSThread()
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &routerChild{cmd: cmd, done: make(chan struct{}), log: &tailBuffer{}}
	addr := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.log.add(line)
			if m := servingOn.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		_ = cmd.Wait()
	}()
	select {
	case a := <-addr:
		c.base = "http://" + a
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("loom-router exited before listening:\n%s", c.log)
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("loom-router did not listen within 30s:\n%s", c.log)
	}
}

// stop asks the child to shut down, kills it if it does not, and returns
// once it has been reaped.
func (c *routerChild) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

func (c *routerChild) rssMB() float64 {
	return procStatusKB(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid), "VmRSS") / 1024
}

// conn is one keep-alive HTTP connection to the router.
type conn struct {
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	return &conn{base: base, c: &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and reads the whole reply into buf (discarding it
// when buf is nil). Any non-2xx status is an error.
func (c *conn) do(rq *request, buf *bytes.Buffer) error {
	var resp *http.Response
	var err error
	if rq.body != nil {
		resp, err = c.c.Post(c.base+rq.path, "application/json", bytes.NewReader(rq.body))
	} else {
		resp, err = c.c.Get(c.base + rq.path)
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var w io.Writer = io.Discard
	if buf != nil {
		buf.Reset()
		w = buf
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d", rq.path, resp.StatusCode)
	}
	return nil
}

type requestKind uint8

const (
	kindRoute requestKind = iota
	kindBatch
	kindScatter
)

type request struct {
	kind   requestKind
	path   string
	body   []byte // POST when non-nil
	vertex int64  // kindRoute: the vertex asked for
}

// routerStats is the part of GET /stats the benchmark reads.
type routerStats struct {
	Mirror struct {
		NextSeq    uint64 `json:"next_seq"`
		Lookups    uint64 `json:"lookups"`
		MirrorHits uint64 `json:"mirror_hits"`
		Misses     uint64 `json:"misses"`
	} `json:"mirror"`
	Server struct {
		Shed uint64 `json:"shed"`
	} `json:"server"`
	Supervisor struct {
		Polls        uint64 `json:"polls"`
		Records      uint64 `json:"records"`
		Rebootstraps uint64 `json:"rebootstraps"`
	} `json:"supervisor"`
}

var statsRequest = &request{path: "/stats"}

func (c *conn) stats(buf *bytes.Buffer) (routerStats, error) {
	var st routerStats
	if err := c.do(statsRequest, buf); err != nil {
		return st, err
	}
	return st, json.Unmarshal(buf.Bytes(), &st)
}

// serveResult is what the serving phase measured.
type serveResult struct {
	bulkEdges, steadyEdges int
	catchup                time.Duration // child start → /healthz 200
	route, batch, scatter  []time.Duration
	visibility             []time.Duration
	late                   []time.Duration // request generator: send start − due time
	ingestLate             []time.Duration
	closedLoop             []float64 // phase C: requests per second in each closedSlice
	stats                  routerStats
	rssMB                  float64
	wrong, stale           int
}

// sleepUntil sleeps until due and returns the time it woke at. The wake-up
// runs a few hundred microseconds late: the runtime waits for timers in
// whole milliseconds. The generators do not spin to hide that, because on a
// two-CPU box a spinning generator takes the CPU the system under test
// needs.
func sleepUntil(due time.Time) time.Time {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return time.Now()
}

// pickVertex draws a vertex of the n first-seen ones with a Zipf-like
// (log-uniform) preference for early, long-placed vertices.
func pickVertex(rng *rand.Rand, verts []int64, n int) int64 {
	return verts[int(math.Pow(float64(n), rng.Float64()))-1]
}

// makeRequests pre-builds the open-loop request schedule, so that the
// generator does no work but sending: request j is due j × requestEvery in
// and targets vertices streamed by then (bulk plus the steady batches due).
func (r *run) makeRequests(count, bulkEdges int) []request {
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0x726f757465)) // "route"
	motif := url.QueryEscape(r.in.wl.Queries()[0].Name)
	unseenBase := int64(0)
	for _, v := range r.in.verts {
		unseenBase = max(unseenBase, v+1)
	}
	reqs := make([]request, count)
	for j := range reqs {
		streamed := bulkEdges + int(time.Duration(j)*requestEvery/ingestInterval)*steadyBatch
		n := int(r.in.vertsAt[min(streamed, len(r.in.edges))])
		pick := func() int64 {
			if rng.Float64() < r.spec.unseenShare {
				return unseenBase + rng.Int63n(1<<30)
			}
			return pickVertex(rng, r.in.verts, n)
		}
		switch x := rng.Float64(); {
		case x < r.spec.batchShare:
			ids := make([]int64, routeBatchIDs)
			for i := range ids {
				ids[i] = pick()
			}
			body, _ := json.Marshal(ids) // []int64 cannot fail to marshal
			reqs[j] = request{kind: kindBatch, path: "/route/batch", body: body}
		case x < r.spec.batchShare+r.spec.scatterShare:
			reqs[j] = request{kind: kindScatter, path: fmt.Sprintf("/route/scatter?seed=%d&motif=%s", pick(), motif)}
		default:
			v := pick()
			reqs[j] = request{kind: kindRoute, path: "/route/" + strconv.FormatInt(v, 10), vertex: v}
		}
	}
	return reqs
}

// pendingBatch is a durable batch whose last placement event has not yet
// been seen applied on the router.
type pendingBatch struct {
	needSeq uint64 // router's next_seq must reach this
	synced  time.Time
}

// servePhase hosts a durable primary in this process, bulk-loads it, starts
// the router child on its directory, and measures steady state (phase B,
// open loop) and saturation (phase C, closed loop).
func (r *run) servePhase(steady, closed time.Duration) (*serveResult, error) {
	res := &serveResult{}
	phase := r.tr.begin("phase.serve", 0)
	defer func() { r.tr.end(phase, 0) }()

	// Size phase B: whole batches at the offered rate, leaving at least a
	// fifth of the stream for the bulk load.
	n := len(r.in.edges)
	batches := min(int(steady/ingestInterval), n*4/5/steadyBatch)
	res.steadyEdges = batches * steadyBatch
	res.bulkEdges = n - res.steadyEdges
	steady = time.Duration(batches) * ingestInterval

	dir := filepath.Join(r.tmp, "serve")
	defer os.RemoveAll(dir)
	p, _, err := loom.Open(r.in.options(dir), r.in.wl)
	r.ops.did(err)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	// Subscribed before the first edge, so event seqs are dense from 0 and
	// the checkpoint records that the stream has subscribers: the follower
	// then numbers its events exactly as the primary does.
	var lastSeq atomic.Uint64
	p.Subscribe(func(ev loom.PlacementEvent) { lastSeq.Store(ev.Seq) })

	// Phase A: bulk load and checkpoint, as a primary that has been up a while.
	id := r.tr.begin("serve.bulk", phase)
	r.addBatches(p, 0, res.bulkEdges)
	_, err = p.Checkpoint()
	r.tr.end(id, int64(res.bulkEdges))
	r.ops.did(err)
	if err != nil {
		return nil, err
	}

	id = r.tr.begin("loom-router.start", phase)
	t0 := time.Now()
	child, err := startRouter(r.cfg.routerBin, r.spec.dataset, len(r.in.verts), dir)
	if err != nil {
		return nil, err
	}
	r.child.Store(child)
	defer func() {
		child.stop()
		r.child.Store(nil)
	}()
	a, b := newConn(child.base), newConn(child.base)
	defer a.close()
	defer b.close()
	if err := waitHealthy(a, child); err != nil {
		return nil, err
	}
	res.catchup = time.Since(t0)
	r.tr.end(id, 0)

	// Phase B.
	reqs := r.makeRequests(int(steady/requestEvery), res.bulkEdges)
	var (
		mu      sync.Mutex
		pending []pendingBatch
		wg      sync.WaitGroup
		stop    = make(chan struct{})
	)
	// Only the ingest goroutine records spans while the phase runs (the
	// tracer is not safe for concurrent use). Garbage from the earlier
	// phases is collected now rather than during the measurement.
	runtime.GC()
	id = r.tr.begin("serve.steady", phase)
	start := time.Now().Add(20 * time.Millisecond)
	wg.Add(2)
	go func() { // open-loop durable ingest
		defer wg.Done()
		seen := lastSeq.Load()
		for i := range batches {
			due := start.Add(time.Duration(i) * ingestInterval)
			res.ingestLate = append(res.ingestLate, sleepUntil(due).Sub(due))
			from := res.bulkEdges + i*steadyBatch
			sid := r.tr.begin("loom.AddBatch+Sync", id)
			err := p.AddBatch(r.in.edges[from : from+steadyBatch])
			if err == nil {
				err = p.Sync()
			}
			synced := time.Now()
			r.tr.end(sid, steadyBatch)
			r.ops.did(err)
			if last := lastSeq.Load(); last != seen { // the batch placed or evicted something
				seen = last
				mu.Lock()
				pending = append(pending, pendingBatch{needSeq: last + 1, synced: synced})
				mu.Unlock()
			}
		}
	}()
	go func() { // open-loop requests on connection a
		defer wg.Done()
		var prevDone time.Time
		for j := range reqs {
			// A request is timed from when it was due, so that a stall is
			// charged to every request it delays. The exception is the
			// generator's own wake-up overshoot: when the connection was
			// idle at the due time, nothing the router did made the send
			// late, and the request is timed from the send.
			from := start.Add(time.Duration(j) * requestEvery)
			sent := sleepUntil(from)
			res.late = append(res.late, sent.Sub(from))
			if !prevDone.After(from) {
				from = sent
			}
			err := a.do(&reqs[j], nil)
			prevDone = time.Now()
			lat := prevDone.Sub(from)
			r.ops.did(err)
			if err != nil {
				continue // a failed request has no latency: it misses any limit
			}
			switch reqs[j].kind {
			case kindRoute:
				res.route = append(res.route, lat)
			case kindBatch:
				res.batch = append(res.batch, lat)
			case kindScatter:
				res.scatter = append(res.scatter, lat)
			}
		}
	}()
	// Visibility: /stats on connection b, until every batch has been seen
	// applied or, once ingest has stopped, visibilityGrace has passed.
	const visibilityGrace = 10 * time.Second
	pollerDone := make(chan struct{})
	invisible := 0
	go func() {
		defer close(pollerDone)
		var buf bytes.Buffer
		var stopped time.Time
		tick := time.NewTicker(statsEvery)
		defer tick.Stop()
		for {
			st, err := b.stats(&buf)
			now := time.Now()
			r.ops.did(err)
			mu.Lock()
			k := 0
			for k < len(pending) && err == nil && pending[k].needSeq <= st.Mirror.NextSeq {
				res.visibility = append(res.visibility, now.Sub(pending[k].synced))
				k++
			}
			pending = pending[k:]
			left := len(pending)
			mu.Unlock()
			select {
			case <-stop:
				if stopped.IsZero() {
					stopped = now
				}
				if left == 0 || now.Sub(stopped) > visibilityGrace {
					invisible = left
					return
				}
			default:
			}
			<-tick.C
		}
	}()
	wg.Wait()
	close(stop)
	<-pollerDone
	if invisible > 0 {
		return nil, fmt.Errorf("%d batches never became visible on the router:\n%s", invisible, child.log)
	}
	r.tr.end(id, int64(res.steadyEdges))

	// Phase C: both connections closed-loop, ingest idle. Completions are
	// counted per closedSlice so that the rate can be reported as the
	// median slice, which a stall of the machine does not move.
	id = r.tr.begin("serve.closed-loop", phase)
	slices := int(closed / closedSlice)
	counts := make([]atomic.Int64, slices)
	t0 = time.Now()
	for ci, c := range []*conn{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.seed + int64(ci)))
			rq := request{kind: kindRoute}
			for {
				slice := int(time.Since(t0) / closedSlice)
				if slice >= slices {
					return
				}
				rq.path = "/route/" + strconv.FormatInt(pickVertex(rng, r.in.verts, len(r.in.verts)), 10)
				err := c.do(&rq, nil)
				r.ops.did(err)
				if err == nil {
					counts[slice].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for i := range counts {
		res.closedLoop = append(res.closedLoop, float64(counts[i].Load())/closedSlice.Seconds())
		total += counts[i].Load()
	}
	r.tr.end(id, total)

	// Correctness sweep: every streamed vertex through /route/batch against
	// the primary. The follower is caught up (every batch became visible),
	// so stale answers are not expected, but only wrong ones are illegal.
	var buf bytes.Buffer
	if res.stats, err = a.stats(&buf); err != nil {
		return nil, err
	}
	res.rssMB = child.rssMB()
	id = r.tr.begin("serve.sweep", phase)
	const sweepIDs = 4096
	for i := 0; i < len(r.in.verts); i += sweepIDs {
		ids := r.in.verts[i:min(i+sweepIDs, len(r.in.verts))]
		body, _ := json.Marshal(ids)
		err := a.do(&request{path: "/route/batch", body: body}, &buf)
		r.ops.did(err)
		if err != nil {
			return nil, err
		}
		var ds []router.Decision
		if err := json.Unmarshal(buf.Bytes(), &ds); err != nil || len(ds) != len(ids) {
			return nil, fmt.Errorf("/route/batch sweep: %d decisions for %d ids: %v", len(ds), len(ids), err)
		}
		for j, d := range ds {
			part, ok := p.PartitionOf(ids[j])
			switch {
			case d.Found && (!ok || part != d.Partition || d.Vertex != ids[j]):
				res.wrong++
			case ok && !d.Found:
				res.stale++
			}
		}
	}
	r.tr.end(id, int64(len(r.in.verts)))
	r.check("no-wrong-routes", res.wrong == 0, "%d wrong, %d stale of %d vertices", res.wrong, res.stale, len(r.in.verts))
	r.check("no-rebootstrap", res.stats.Supervisor.Rebootstraps <= 1,
		"follower re-bootstrapped %d times", res.stats.Supervisor.Rebootstraps)
	return res, nil
}

// waitHealthy polls /healthz until the follower has caught up with the
// primary's durable log head.
func waitHealthy(c *conn, child *routerChild) error {
	deadline := time.Now().Add(30 * time.Second)
	rq := &request{path: "/healthz"}
	for time.Now().Before(deadline) {
		if err := c.do(rq, nil); err == nil {
			return nil
		}
		select {
		case <-child.done:
			return fmt.Errorf("loom-router exited while catching up:\n%s", child.log)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("loom-router not healthy within 30s:\n%s", child.log)
}
