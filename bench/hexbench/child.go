package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// storeBudget is the on-disk budget of the child's store: hexd's default
// -store-max-bytes, far above what one rep writes, so nothing is evicted.
const storeBudget = 256 << 20

// sweepPoll is how often the sweep caller polls its job. It bounds the
// resolution of a unit's time to result.
const sweepPoll = time.Millisecond

// childConfig is what the parent hands a child process.
type childConfig struct {
	Plan   plan `json:"plan"`
	Traced bool `json:"traced"`
	// T0 is the wall clock, in Unix nanoseconds, just before the parent
	// started the child; setup_s counts from it.
	T0       int64  `json:"t0_unix_ns"`
	WorkDir  string `json:"work_dir"`
	TraceDir string `json:"trace_dir,omitempty"`
}

// repResult is one rep's measurements, sent back to the parent as JSON.
// Counter fields are deltas over the timed phase.
type repResult struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Events    uint64  `json:"events"`
	// LatencyMs are the op latencies in completion order; Rates are the
	// op completion rates (op/s) of the rep's windows.
	LatencyMs []float64 `json:"latency_ms"`
	Rates     []float64 `json:"rates"`
	// Fresh counts simulations the service ran; Fsyncs and StoreBytes
	// are the store's deltas, read after the write-behind drained.
	Fresh      uint64  `json:"fresh"`
	Fsyncs     uint64  `json:"fsyncs"`
	StoreBytes int64   `json:"store_bytes"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseMs  float64 `json:"gc_pause_ms"`
	// Digest is SHA-256 over the sorted (canonical key, body) pairs served.
	Digest   string             `json:"digest"`
	Problems []string           `json:"problems,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
}

// problem counts a failed op and keeps the first few descriptions.
func (r *repResult) problem(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// stack is the serving stack as hexd wires it, in this process.
type stack struct {
	st     *store.Store
	svc    *service.Service
	mgr    *jobs.Manager
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	url    string
	client *http.Client
}

func startStack(dir string, clients int) (*stack, error) {
	st, err := store.Open(dir, storeBudget)
	if err != nil {
		return nil, err
	}
	// hexd logs JSON at info level; the lines go nowhere here.
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	// Zero-valued options resolve to hexd's flag defaults: 512 cache
	// entries, GOMAXPROCS workers, a 4x queue, serial engine, no exporter
	// and no arm policy.
	svc := service.New(service.Options{Store: st, Logger: logger})
	mgr := jobs.NewManager(jobs.Options{
		Runner:   svc,
		Service:  svc.Options(),
		Store:    st,
		MaxUnits: maxSweepUnits,
		Logger:   logger,
		Trace:    svc.Ring(),
	})
	if _, err := mgr.Recover(); err != nil {
		mgr.Close()
		svc.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mgr.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		svc.Close()
		return nil, err
	}
	s := &stack{
		st:     st,
		svc:    svc,
		mgr:    mgr,
		srv:    &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String() + "/v1/run",
		// One connection per client goroutine.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     max(1, clients),
			MaxIdleConnsPerHost: max(1, clients),
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// drain stops the sweep scheduler and the service; when it returns, every
// write-behind store write has finished.
func (s *stack) drain() {
	s.mgr.Close()
	s.svc.Close()
}

func (s *stack) close() {
	s.drain()
	s.srv.Close()
	<-s.served
	s.client.CloseIdleConnections()
}

// post sends one /v1/run request and reads the whole reply.
func (s *stack) post(body []byte, rid string) (status int, reply []byte, events uint64, err error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, 0, err
	}
	events, _ = strconv.ParseUint(resp.Header.Get("X-Hexd-Events"), 10, 64)
	return resp.StatusCode, reply, events, nil
}

// served is what the clients saw, by request index: the first body served
// for each request and its X-Hexd-Events count.
type served struct {
	bodies [][]byte
	events []uint64
}

func newServed(n int) *served {
	return &served{bodies: make([][]byte, n), events: make([]uint64, n)}
}

// record keeps the first body for request r and reports whether a later
// one differs from it.
func (sv *served) record(r int, body []byte, events uint64) (changed bool) {
	if sv.bodies[r] == nil {
		sv.bodies[r], sv.events[r] = body, events
		return false
	}
	return !bytes.Equal(sv.bodies[r], body) || sv.events[r] != events
}

// pendingOp is a traced client op whose service trace is not yet read.
type pendingOp struct {
	rid string
	op  int
}

// timing collects a timed phase's per-op measurements, in ms since the
// phase began. Each latency sample carries the completion time it was
// taken at, so the rep can be cut into windows in completion order.
type timing struct {
	origin time.Time

	mu      sync.Mutex
	latency [][2]float64 // (completed at, latency)
	done    []float64    // completion time of every op
}

func (tm *timing) since(t time.Time) float64 {
	return float64(t.Sub(tm.origin)) / float64(time.Millisecond)
}

func (tm *timing) add(latency [][2]float64, done []float64) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.latency = append(tm.latency, latency...)
	tm.done = append(tm.done, done...)
}

// drive runs ops closed-loop from clients goroutines, each sending its
// next request when the previous reply is in. tm, when non-nil, gets each
// op's latency. With a recorder, every op is an "op" span and the
// service's own spans for it are read back from its trace ring.
func (s *stack) drive(in *inputs, ops []int, clients int, sv *served, tm *timing, res *repResult, rec *recorder, label string) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := newServed(len(in.reqs))
			var events uint64
			var pending []pendingOp
			var errs []string
			var lat [][2]float64
			var done []float64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				r := ops[i]
				rid := ""
				if rec != nil {
					rid = label + "-" + strconv.Itoa(i)
				}
				t0 := time.Now()
				status, body, ev, err := s.post(in.reqs[r].body, rid)
				t1 := time.Now()
				if tm != nil {
					end := tm.since(t1)
					lat = append(lat, [2]float64{end, float64(t1.Sub(t0)) / float64(time.Millisecond)})
					done = append(done, end)
				}
				if rec != nil {
					pending = append(pending, pendingOp{rid, rec.add("op", 0, t0, t1)})
					// The ring keeps the last 64 traces; reading it every 16
					// ops per client finds each trace before it is evicted.
					if len(pending) >= 16 {
						pending = s.attach(rec, pending)
					}
				}
				switch {
				case err != nil:
					errs = append(errs, fmt.Sprintf("op %d: %v", i, err))
				case status != http.StatusOK:
					errs = append(errs, fmt.Sprintf("op %d: status %d: %s", i, status, bytes.TrimSpace(body)))
				case mine.record(r, body, ev):
					errs = append(errs, fmt.Sprintf("op %d: body for %s changed between replies", i, in.reqs[r].key))
				default:
					events += ev
				}
			}
			s.attach(rec, pending)
			if tm != nil {
				tm.add(lat, done)
			}
			mu.Lock()
			defer mu.Unlock()
			res.Events += events
			for _, e := range errs {
				res.problem("%s", e)
			}
			for r, b := range mine.bodies {
				if b != nil && sv.record(r, b, mine.events[r]) {
					res.problem("clients were served different bodies for %s", in.reqs[r].key)
				}
			}
		}()
	}
	wg.Wait()
}

// attach reads the service's trace ring and hangs each pending op's
// service spans under its op span. It returns the ops not found yet.
func (s *stack) attach(rec *recorder, pending []pendingOp) []pendingOp {
	if rec == nil || len(pending) == 0 {
		return pending
	}
	byID := make(map[string]obs.TraceSnapshot)
	for _, snap := range s.svc.Ring().Snapshots() {
		byID[snap.ID] = snap
	}
	left := pending[:0]
	for _, p := range pending {
		snap, ok := byID[p.rid]
		if !ok {
			left = append(left, p)
			continue
		}
		addServiceSpans(rec, p.op, snap)
	}
	return left
}

// addServiceSpans records a service trace's spans under parent.
func addServiceSpans(rec *recorder, parent int, snap obs.TraceSnapshot) {
	for _, sp := range snap.Spans {
		start := snap.Start.Add(time.Duration(sp.StartUs * 1e3))
		rec.add("service."+sp.Name, parent, start, start.Add(time.Duration(sp.DurUs*1e3)))
	}
}

// sweep submits one sweep and polls it to completion. With tm, every unit
// completes at the poll that saw it finish, and the latency samples are
// the sweep's batches, from dispatch to group commit, read from their own
// traces: a batch is the op the campaign pipeline schedules. With a
// recorder the sweep is one "op" span, and each batch a "service.batch"
// span under it.
func (s *stack) sweep(spec jobs.SweepSpec, tm *timing, res *repResult, rec *recorder) error {
	t0 := time.Now()
	j, existing, err := s.mgr.Submit(spec)
	if err != nil {
		return err
	}
	if existing {
		return fmt.Errorf("sweep %s was already submitted", j.ID)
	}
	var done []float64
	for seen := 0; ; {
		fin := j.Done()
		_, _, ok, failed := j.Counts()
		now := time.Now()
		for ; seen < ok+failed; seen++ {
			if tm != nil {
				done = append(done, tm.since(now))
			}
		}
		if fin {
			for i := 0; i < failed; i++ {
				res.problem("sweep %s: unit failed", j.ID)
			}
			break
		}
		time.Sleep(sweepPoll)
	}
	end := time.Now()
	batches := s.batchTraces(j.ID, (len(j.Units)+spec.Batch-1)/spec.Batch)
	if tm != nil {
		var lat [][2]float64
		for _, b := range batches {
			d := time.Duration(b.DurationMs * float64(time.Millisecond))
			lat = append(lat, [2]float64{tm.since(b.Start.Add(d)), b.DurationMs})
		}
		tm.add(lat, done)
	}
	if rec != nil {
		op := rec.add("op", 0, t0, end)
		for _, b := range batches {
			d := time.Duration(b.DurationMs * float64(time.Millisecond))
			addServiceSpans(rec, rec.add("service.batch", op, b.Start, b.Start.Add(d)), b)
		}
	}
	return nil
}

// batchTraces returns the finished batch traces of a job from the
// service's trace ring. A batch adds its trace just after its last unit
// completes, so the final one can land after the job reports done.
func (s *stack) batchTraces(job string, want int) []obs.TraceSnapshot {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var batches []obs.TraceSnapshot
		for _, snap := range s.svc.Ring().Snapshots() {
			if snap.Endpoint == "sweep-batch" && snap.Attrs["job"] == job {
				batches = append(batches, snap)
			}
		}
		if len(batches) >= want || time.Now().After(deadline) {
			return batches
		}
		time.Sleep(sweepPoll)
	}
}

// settle waits until every result computed so far is in the store and
// finished sweeps have retired their job records, so the timed phase's
// store deltas count only its own writes.
func (s *stack) settle() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := s.svc.Metrics
		if m.StoreWrites.Value() == m.SimRuns.Value() && len(s.st.Keys("job:")) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("write-behind did not settle within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// counters is a snapshot of every counter the timed phase is measured by.
type counters struct {
	fsyncs, sims                    uint64
	bytes                           int64
	hits, misses, joins, rejects    uint64
	storeHits, storeErrors, quarant uint64
	gridHits, gridMisses            uint64
	retries, unitsFailed            uint64
	cpu                             time.Duration
	alloc                           uint64
	gcs                             uint32
	pause                           time.Duration
	maxRSSKB                        int64
}

func (s *stack) read() counters {
	m := s.svc.Metrics
	c := counters{
		fsyncs: s.st.Fsyncs(), bytes: s.st.Bytes(), sims: m.SimRuns.Value(),
		hits: m.CacheHits.Value(), misses: m.CacheMisses.Value(), joins: m.DedupJoins.Value(),
		rejects: m.QueueRejects.Value(), storeHits: m.StoreHits.Value(), storeErrors: m.StoreErrors.Value(),
		quarant:     s.st.Quarantined(),
		retries:     s.mgr.Metrics.UnitRetries.Load(),
		unitsFailed: s.mgr.Metrics.UnitsFailed.Load(),
	}
	c.gridHits, c.gridMisses = grid.Shared.Stats()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		// ru_maxrss is the process's peak resident set, VmHWM, in KiB.
		c.maxRSSKB = ru.Maxrss
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcs, c.pause = ms.TotalAlloc, ms.NumGC, time.Duration(ms.PauseTotalNs)
	return c
}

// runChild runs one rep: it starts the stack, runs the untimed setup,
// times the workload's ops, drains the write-behind, and checks every
// body it was served. A traced rep also replays ops stage by stage and
// computes the per-layer metrics.
func runChild(cfg childConfig) (*repResult, error) {
	p := cfg.Plan
	w, ok := workloadByName(p.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.Workload)
	}
	genStart := time.Now()
	in, err := generate(p)
	if err != nil {
		return nil, err
	}
	gen := time.Since(genStart)
	dir, err := os.MkdirTemp(cfg.WorkDir, "rep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := startStack(filepath.Join(dir, "store"), w.clients)
	if err != nil {
		return nil, err
	}
	defer s.close()

	res := &repResult{Workload: p.Workload, Traced: cfg.Traced}
	var rec *recorder
	if cfg.Traced {
		rec = newRecorder()
	}
	sv := newServed(len(in.reqs))
	// Setup failures count like any other: a wrong setup body would be
	// served again by the timed ops.
	if w.clients > 0 {
		s.drive(in, in.setup, w.clients, sv, nil, res, rec, "setup")
	} else if err := s.sweep(in.setupSweep, nil, res, rec); err != nil {
		return nil, err
	}
	if err := s.settle(); err != nil {
		return nil, err
	}

	before := s.read()
	// Generating the inputs is the harness's work, not the program's.
	res.SetupS = (time.Since(time.Unix(0, cfg.T0)) - gen).Seconds()
	tm := &timing{origin: time.Now()}
	if w.clients > 0 {
		s.drive(in, in.ops, w.clients, sv, tm, res, rec, "op")
	} else {
		for _, spec := range in.sweeps {
			if err := s.sweep(spec, tm, res, rec); err != nil {
				return nil, err
			}
		}
	}
	res.WallS = time.Since(tm.origin).Seconds()
	sort.Slice(tm.latency, func(i, j int) bool { return tm.latency[i][0] < tm.latency[j][0] })
	for _, l := range tm.latency {
		res.LatencyMs = append(res.LatencyMs, l[1])
	}
	res.Rates = windowRates(tm.done, windowsPerRep)
	res.Attempted = len(in.ops)
	mid := s.read()
	s.drain()
	after := s.read()

	res.Fresh = after.sims - before.sims
	res.Fsyncs = after.fsyncs - before.fsyncs
	res.StoreBytes = after.bytes - before.bytes
	res.CPUS = (mid.cpu - before.cpu).Seconds()
	res.AllocBytes = mid.alloc - before.alloc
	res.GCCycles = mid.gcs - before.gcs
	res.GCPauseMs = float64(mid.pause-before.pause) / float64(time.Millisecond)
	res.PeakRSSMB = float64(after.maxRSSKB) / 1024

	if w.clients == 0 {
		// Sweep results reach the caller through the store: read each
		// unit's record back as its served body.
		for _, r := range in.ops {
			e, ok, err := s.st.Get(in.reqs[r].key)
			if err != nil || !ok {
				res.problem("unit %s: no stored result (err %v)", in.reqs[r].key, err)
				continue
			}
			sv.record(r, e.Body, e.Events)
			res.Events += e.Events
		}
	}
	checkBodies(in, sv, res)
	res.Digest = digest(in, sv)

	if !cfg.Traced {
		verify(in, p, sv, res)
		return res, nil
	}
	rp, err := replay(rec, in, p, sv, filepath.Join(dir, "replay-store"), res)
	if err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	res.Layers = layerMetrics(spans, rp, before, after)
	if cfg.TraceDir != "" {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeJSONL(filepath.Join(cfg.TraceDir, "trace-"+p.Workload+".jsonl"), spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkBodies validates every distinct body the rep was served against the
// request that produced it.
func checkBodies(in *inputs, sv *served, res *repResult) {
	for r, body := range sv.bodies {
		if body == nil {
			continue
		}
		want := in.reqs[r].req
		if want.Output == "agg" {
			a, err := store.DecodeAggregate(body)
			if err != nil || a.Events == 0 || a.Events != sv.events[r] || a.Triggered == 0 {
				res.problem("%s: bad aggregate body (err %v)", in.reqs[r].key, err)
			}
			continue
		}
		var got service.RunResponse
		err := json.Unmarshal(body, &got)
		if err != nil || got.L != want.L || got.W != want.W || got.Seed != want.Seed ||
			got.Scenario != want.Scenario || got.Faults != want.Faults ||
			got.Events == 0 || got.Events != sv.events[r] || len(got.FaultyNodes) != want.Faults {
			res.problem("%s: body does not answer its request (err %v)", in.reqs[r].key, err)
		}
	}
}

// verify recomputes an evenly spaced sample of the timed ops outside the
// service and requires the served bodies to match byte for byte.
func verify(in *inputs, p plan, sv *served, res *repResult) {
	for k := 0; k < p.Verify && k < len(in.ops); k++ {
		r := in.ops[k*len(in.ops)/p.Verify]
		v, err := compute(nil, 0, in.reqs[r].req)
		if err != nil {
			res.problem("recompute %s: %v", in.reqs[r].key, err)
			continue
		}
		if sv.bodies[r] != nil && !sameBody(sv.bodies[r], v.Body) {
			res.problem("recompute %s: body differs from the served one", in.reqs[r].key)
		}
	}
}

// maskElapsed zeroes the wall-clock field of an HXA1 aggregate body, the
// one part of a result that is not a function of its canonical key. Other
// bodies are returned unchanged.
func maskElapsed(body []byte) []byte {
	if !bytes.HasPrefix(body, []byte("HXA1")) {
		return body
	}
	a, err := store.DecodeAggregate(body)
	if err != nil {
		return body
	}
	a.ElapsedNs = 0
	return store.EncodeAggregate(a)
}

func sameBody(a, b []byte) bool { return bytes.Equal(maskElapsed(a), maskElapsed(b)) }

// digest hashes the sorted (canonical key, masked body) pairs served.
func digest(in *inputs, sv *served) string {
	type pair struct {
		key  string
		body []byte
	}
	var pairs []pair
	for r, b := range sv.bodies {
		if b != nil {
			pairs = append(pairs, pair{in.reqs[r].key, maskElapsed(b)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	h := sha256.New()
	var n [8]byte
	for _, p := range pairs {
		h.Write([]byte(p.key))
		h.Write([]byte{0})
		for i := range n {
			n[i] = byte(len(p.body) >> (8 * i))
		}
		h.Write(n[:])
		h.Write(p.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replay runs the traced rep's replay: a sample of the workload's ops
// single-threaded through each layer's public function, into a scratch
// store. Every replayed body must equal the served one.
func replay(rec *recorder, in *inputs, p plan, sv *served, dir string, res *repResult) (*replayer, error) {
	st, err := store.Open(dir, storeBudget)
	if err != nil {
		return nil, err
	}
	rp := newReplayer(rec, st)
	one := func(parent, r int) (store.Entry, bool) {
		key, v, fresh, id, err := rp.op(parent, in.reqs[r].body)
		defer rec.end(id)
		if err != nil {
			res.problem("replay %s: %v", in.reqs[r].key, err)
			return store.Entry{}, false
		}
		if sv.bodies[r] != nil && !sameBody(sv.bodies[r], v.Body) {
			res.problem("replay %s: body differs from the served one", key)
		}
		e := store.Entry{Key: key, ContentType: v.ContentType, Events: v.Events, Body: v.Body}
		if fresh && p.SweepUnits == 0 {
			// The service's write-behind: one Put per computed result.
			if err := rp.write(id, []store.Entry{e}); err != nil {
				res.problem("replay put %s: %v", key, err)
			}
		}
		return e, fresh
	}
	ops := in.ops[:p.Replay]
	if p.SweepUnits == 0 {
		if p.Keys > 0 {
			// warm-hits: compute the key set as setup did, then the reads.
			for _, r := range in.setup {
				one(0, r)
			}
		}
		for _, r := range ops {
			one(0, r)
		}
		return rp, nil
	}
	// The batch path: one group commit per Batch units.
	for lo := 0; lo < len(ops); lo += campaignBatch {
		b := rec.begin("replay.batch", 0)
		var group []store.Entry
		for _, r := range ops[lo:min(lo+campaignBatch, len(ops))] {
			if e, fresh := one(b, r); fresh {
				group = append(group, e)
			}
		}
		if err := rp.write(b, group); err != nil {
			res.problem("replay put group: %v", err)
		}
		rec.end(b)
	}
	return rp, nil
}
