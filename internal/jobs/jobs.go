// Package jobs promotes parameter sweeps from one synchronous HTTP
// request to first-class, durable, fairly scheduled jobs (DESIGN.md
// §14). POST /v1/sweeps decomposes a sweep spec into per-run work units
// whose canonical keys are byte-identical to the equivalent single
// /v1/run requests, so every layer that dedupes single runs — the
// memory LRU, the durable store, the rendezvous-hashed fleet — dedupes
// sweep units for free. A weighted-fair-queueing scheduler (wfq.go)
// feeds units across client tenants into the existing execution path,
// and progress streams to clients over server-sent events with
// Last-Event-ID reconnection (http.go).
//
// Jobs survive restarts without any resume bookkeeping of their own:
// the spec is persisted to the durable store under "job:<id>" when the
// job is accepted, and on boot Recover re-decomposes it and simply
// re-runs every unit through the pipeline. Units whose results already
// sit in the store come back as store hits (zero simulation work);
// only the gap recomputes. Determinism makes the resumed results
// byte-identical to an uninterrupted run.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"repro/internal/coalesce"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/service"
	"repro/internal/store"
)

// ErrShuttingDown is returned by Submit after Close has begun.
var ErrShuttingDown = errors.New("jobs: shutting down")

// maxJobs bounds retained job states, evicting the oldest finished jobs
// first. Running jobs are never evicted.
const maxJobs = 256

// Runner executes batches of normalized single-run requests through a
// serving pipeline. A backend's *service.Service implements it on its
// local worker pool; the cluster router implements it by forwarding
// each unit to the shard that owns its canonical key. Either way every
// unit dedupes against all other traffic for the same key.
//
// RunUnits returns slices index-aligned with reqs. A unit the runner
// could not start for want of capacity (a full worker queue, a router at
// its forward limit, a shard's 429) reports an error matching
// service.ErrQueueFull: the manager re-runs exactly those units with
// backoff until the batch deadline. Every other error is final for its
// unit.
//
// Flush is the durability barrier a finished job waits on before it drops
// its record (see retire): it returns once every result RunUnits has
// returned is durable. A runner without a store of its own returns nil.
type Runner interface {
	RunUnits(ctx context.Context, timeout time.Duration, reqs []service.RunRequest) ([]*coalesce.Value, []error)
	Flush(ctx context.Context) error
}

// Options configure a Manager. Runner is required; the zero value of
// every other field selects a sane default.
type Options struct {
	// Runner executes units.
	Runner Runner
	// Service carries the admission limits units are normalized against.
	// It should be the same resolved Options the single-run endpoints
	// enforce, so a sweep can never smuggle in a request that POST
	// /v1/run would reject.
	Service service.Options
	// Store, when non-nil, persists accepted job specs and enables
	// Recover. Unit results are NOT written here by the manager — they
	// flow through the Runner's own write-behind path, which is exactly
	// what makes resume recompute only the gap.
	Store *store.Store
	// MaxUnits bounds one sweep's unit count (default 10000).
	MaxUnits int
	// MaxInFlight bounds concurrently dispatched batches (default
	// 2×GOMAXPROCS). Dispatch concurrency is deliberately modest: it is
	// the window the WFQ scheduler reorders within, and the worker pool
	// behind the Runner applies its own backpressure.
	MaxInFlight int
	// Logger receives the manager's structured log (default slog.Default()).
	Logger *slog.Logger
	// Trace, when non-nil, receives each batch's completed sweep-batch
	// trace — wire the service's ring here so sweep units appear in GET
	// /v1/debug/requests next to interactive requests.
	Trace *obs.Ring
	// Exporter, when non-nil, receives the completed traces of sweep
	// batches and the per-job root span for OTLP export. Every batch of a
	// job shares the job's trace-id and parents under its root span, so a
	// whole sweep renders as one tree in the collector — and, through the
	// router, so do the backend hops each unit caused.
	Exporter *export.Exporter
	// Metrics, when non-nil, is the registry the job families are
	// declared in — the service's or the router's, so they render on its
	// /metrics. Nil selects a private registry.
	Metrics *metrics.Registry
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	o.Service = o.Service.Resolved()
	if o.MaxUnits <= 0 {
		o.MaxUnits = 10000
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.Metrics == nil {
		o.Metrics = &metrics.Registry{}
	}
	return o
}

// unitState tracks one unit through its lifetime.
type unitState uint8

const (
	unitPending unitState = iota
	unitRunning
	unitDone
	unitFailed
	unitCancelled
)

// Event is one completed unit, in completion order. It is both the SSE
// payload (data: is its JSON) and the in-memory replay log entry.
type Event struct {
	// Seq is the event's 1-based position in the job's completion order.
	// SSE ids are "<epoch>-<seq>"; see Job.Epoch.
	Seq int `json:"seq"`
	// Unit is the unit's decomposition index; Key its canonical key.
	Unit int    `json:"unit"`
	Key  string `json:"key"`
	// Status is "done" or "failed"; Error carries the failure.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Events is the unit's simulation event count (from the serving
	// pipeline, so a cache or store hit replays the original count).
	Events uint64 `json:"events,omitempty"`
	// Record is the unit's result framed with the durable store's
	// checksummed record codec (store.EncodeEntry; JSON carries it
	// base64-encoded). Decoding with store.DecodeEntry yields the exact
	// response body a POST /v1/run for the unit's request returns, plus
	// its content type — and verifies the CRC, so a client detects
	// payload corruption in transit the same way the store detects it on
	// disk.
	Record []byte `json:"record,omitempty"`
}

// Job is one accepted sweep. All fields set at creation are immutable;
// mutable state is guarded by mu.
type Job struct {
	// ID is the deterministic job identity (see JobID).
	ID string
	// Epoch distinguishes this in-memory materialization of the job from
	// pre-restart ones: SSE event ids are "<epoch>-<seq>", and a
	// reconnect quoting a foreign epoch replays the log from the start
	// (at-least-once across restarts) instead of resuming a sequence
	// numbering that a different completion order may have reshuffled.
	Epoch string
	// Spec is the normalized sweep spec; Units its stable decomposition.
	Spec  SweepSpec
	Units []Unit
	// Resumed reports the job was re-materialized by Recover.
	Resumed bool

	// root is the job's own trace: it mints the W3C trace-id every batch
	// of the job shares, and its span is the parent of every batch span,
	// so one sweep exports as one tree. Finished (and exported) exactly
	// once, when the last unit lands.
	root       *obs.Trace
	finishOnce sync.Once

	// cancelCtx is done once the job is cancelled. Every dispatched
	// batch's context is bridged to it, so a DELETE reaches work already
	// handed to the Runner, not just queued units: a batch of one cancels
	// its run mid-simulation unless other requests wait on it, and a
	// larger batch finishes the unit it is running and starts no other.
	cancelCtx context.Context
	cancelFn  context.CancelFunc

	mu         sync.Mutex
	state      []unitState
	events     []Event
	done       bool
	cancelled  bool
	failed     int
	nCancelled int           // units cancelled before running (no event)
	change     chan struct{} // closed and replaced on every append/finish
	created    time.Time
	finishedAt time.Time
}

// newJob materializes a job with every unit pending.
func newJob(id string, spec SweepSpec, units []Unit, resumed bool) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	root := obs.NewTrace(obs.NewRequestID(), "sweep-job")
	root.SetTraceID(obs.NewTraceID())
	root.SetAttr("job", id)
	root.SetAttr("tenant", spec.Tenant)
	root.SetAttr("units", fmt.Sprintf("%d", len(units)))
	return &Job{
		ID:        id,
		root:      root,
		Epoch:     obs.NewRequestID(),
		Spec:      spec,
		Units:     units,
		Resumed:   resumed,
		cancelCtx: ctx,
		cancelFn:  cancel,
		state:     make([]unitState, len(units)),
		change:    make(chan struct{}),
		created:   time.Now(),
	}
}

// Done reports whether every unit reached a terminal state.
func (j *Job) Done() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// Counts returns the job's unit-state tally.
func (j *Job) Counts() (pending, running, done, failed int) {
	p, r, d, f, _ := j.CountsWithCancelled()
	return p, r, d, f
}

// CountsWithCancelled returns the tally including cancelled units.
func (j *Job) CountsWithCancelled() (pending, running, done, failed, cancelled int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, st := range j.state {
		switch st {
		case unitPending:
			pending++
		case unitRunning:
			running++
		case unitDone:
			done++
		case unitFailed:
			failed++
		case unitCancelled:
			cancelled++
		}
	}
	return
}

// Cancelled reports whether the job was cancelled.
func (j *Job) Cancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// cancelNow flips the job to cancelled: every still-pending unit is
// terminally cancelled without an event (its scheduler dispatch becomes a
// no-op), the job's cancel context fires so in-flight batch contexts
// collapse, and subscribers wake. It reports false when the job already
// finished or was already cancelled (idempotent DELETE). In-flight units
// stay "running" until their cancelled contexts surface — the job turns
// done when the last of them completes, or immediately when none are in
// flight.
func (j *Job) cancelNow() bool {
	j.mu.Lock()
	if j.done || j.cancelled {
		j.mu.Unlock()
		return false
	}
	j.cancelled = true
	running := 0
	for i, st := range j.state {
		switch st {
		case unitPending:
			j.state[i] = unitCancelled
			j.nCancelled++
		case unitRunning:
			running++
		}
	}
	if running == 0 {
		j.done = true
		j.finishedAt = time.Now()
	}
	close(j.change)
	j.change = make(chan struct{})
	j.mu.Unlock()
	j.cancelFn()
	return true
}

// eventsAfter snapshots the completion log past seq, plus the current
// change channel (closed on the next append) and the done flag. The
// returned slice aliases the immutable prefix of the log — events are
// append-only and never mutated in place.
func (j *Job) eventsAfter(seq int) (evs []Event, change chan struct{}, done bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	if seq < len(j.events) {
		evs = j.events[seq:len(j.events):len(j.events)]
	}
	return evs, j.change, j.done
}

// markRunning flips a pending unit to running; it reports false when the
// unit is no longer pending (a duplicate dispatch after resume races).
func (j *Job) markRunning(unit int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state[unit] != unitPending {
		return false
	}
	j.state[unit] = unitRunning
	return true
}

// complete appends the unit's terminal event, wakes subscribers and
// returns the event's status. draining reports that Manager.Close has
// begun: a unit it cut off is "interrupted" and gets no event.
func (j *Job) complete(unit int, val *coalesce.Value, err error, draining bool) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev := Event{Seq: len(j.events) + 1, Unit: unit, Key: j.Units[unit].Key, Status: "done"}
	switch {
	case err != nil && j.cancelled && errors.Is(err, context.Canceled):
		// An in-flight unit interrupted by DELETE is cancelled, not
		// failed: it carries no defect, and a later re-submission of the
		// same spec should re-run it.
		j.state[unit] = unitCancelled
		ev.Status = "cancelled"
	case err != nil && draining && errors.Is(err, context.Canceled):
		// A drain is not a failure either. The unit goes back to pending,
		// so the job stays unfinished and keeps its durable record, and
		// the next boot's Recover re-runs it.
		j.state[unit] = unitPending
		return "interrupted"
	case err != nil:
		j.state[unit] = unitFailed
		j.failed++
		ev.Status = "failed"
		ev.Error = err.Error()
	default:
		j.state[unit] = unitDone
		ev.Events = val.Events
		ev.Record = store.EncodeEntry(store.Entry{
			Key:         j.Units[unit].Key,
			ContentType: val.ContentType,
			Events:      val.Events,
			Body:        val.Body,
		})
	}
	j.events = append(j.events, ev)
	// Cancelled-before-running units produce no event, so the job is done
	// when events plus those units cover the decomposition.
	if len(j.events)+j.nCancelled == len(j.Units) {
		j.done = true
		j.finishedAt = time.Now()
	}
	close(j.change)
	j.change = make(chan struct{})
	return ev.Status
}

// Manager owns the accepted jobs, the WFQ scheduler, and the sweep HTTP
// surface. Construct with NewManager; all methods are safe for
// concurrent use.
type Manager struct {
	opts    Options
	Metrics *Metrics
	sched   *scheduler

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order, for maxJobs eviction
	closed bool
}

// NewManager starts a Manager and its dispatch loop.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	if opts.Runner == nil {
		panic("jobs: Options.Runner is required")
	}
	return &Manager{
		opts:    opts,
		Metrics: newMetrics(opts.Metrics),
		sched:   newScheduler(opts.MaxInFlight),
		jobs:    make(map[string]*Job),
	}
}

// Close stops the scheduler (cancelling running units) and wakes every
// event-stream subscriber so their responses end. Queued units are
// dropped; durable job specs remain, so the next boot's Recover resumes
// unfinished jobs.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	m.sched.close()
	for _, j := range jobs {
		// Wake subscribers; they observe the manager closed and return.
		j.mu.Lock()
		close(j.change)
		j.change = make(chan struct{})
		j.mu.Unlock()
	}
}

// isClosed reports whether Close has begun.
func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Job returns the job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Submit validates, decomposes, persists, and schedules a sweep. The
// returned bool reports whether the job already existed (identical
// re-submission or an already-recovered job): submission is idempotent
// by construction, because the job ID is a deterministic function of the
// work.
func (m *Manager) Submit(spec SweepSpec) (*Job, bool, error) {
	return m.submit(spec, false)
}

func (m *Manager) submit(spec SweepSpec, resumed bool) (*Job, bool, error) {
	if err := spec.Normalize(m.opts.MaxUnits); err != nil {
		return nil, false, errBadSpec{err}
	}
	units, err := spec.Decompose(m.opts.Service)
	if err != nil {
		return nil, false, errBadSpec{err}
	}
	id := JobID(spec, units)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrShuttingDown
	}
	if j, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		return j, true, nil
	}
	j := newJob(id, spec, units, resumed)
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.evictLocked()
	m.mu.Unlock()

	m.persist(j)
	m.Metrics.JobsSubmitted.Inc()
	if resumed {
		m.Metrics.JobsResumed.Inc()
	}
	m.Metrics.UnitsPlanned.Add(uint64(len(units)))
	// Consecutive decomposition slices become one scheduler task each,
	// charged for their full unit count (see enqueueN) so batching
	// amortizes overhead without buying share.
	for lo := 0; lo < len(units); lo += spec.Batch {
		lo, hi := lo, min(lo+spec.Batch, len(units))
		m.sched.enqueueN(spec.Tenant, spec.Weight, hi-lo, func(ctx context.Context) {
			m.runBatch(ctx, j, lo, hi)
		})
	}
	m.opts.Logger.Info("sweep accepted", "job", id, "units", len(units),
		"tenant", spec.Tenant, "weight", spec.Weight, "batch", spec.Batch, "resumed", resumed)
	return j, false, nil
}

// Cancel terminates the job: queued units are cancelled in place, the
// job's cancel context interrupts in-flight simulations, the durable job
// record is deleted so the next boot does not resume it, and every event
// stream ends with a terminal "cancelled" frame. found reports whether
// the job exists; cancelled whether this call did the cancelling (false
// on repeat DELETEs and on already-finished jobs — the operation is
// idempotent).
func (m *Manager) Cancel(id string) (j *Job, found, cancelled bool) {
	j, found = m.Job(id)
	if !found {
		return nil, false, false
	}
	if !j.cancelNow() {
		return j, true, false
	}
	m.Metrics.JobsCancelled.Inc()
	j.mu.Lock()
	queued := j.nCancelled
	j.mu.Unlock()
	m.Metrics.UnitsCancelled.Add(uint64(queued))
	if m.opts.Store != nil {
		m.opts.Store.Delete(storeKey(id))
	}
	// A cancel with nothing in flight finishes the job on the spot; the
	// root span must still close and export (no unit completion will).
	m.finishIfDone(context.Background(), j)
	m.opts.Logger.Info("sweep cancelled", "job", id, "queued_units", queued)
	return j, true, true
}

// evictLocked drops the oldest finished jobs beyond maxJobs. Callers
// hold m.mu.
func (m *Manager) evictLocked() {
	if len(m.jobs) <= maxJobs {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if len(m.jobs) > maxJobs && m.jobs[id].Done() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// persist writes the job's spec record so a restart can resume it.
func (m *Manager) persist(j *Job) {
	if m.opts.Store == nil {
		return
	}
	body, err := marshalSpec(j.Spec)
	if err == nil {
		err = m.opts.Store.Put(store.Entry{
			Key:         storeKey(j.ID),
			ContentType: "application/json",
			Body:        body,
		})
	}
	if err != nil {
		// Losing durability of the spec only costs restart resume for
		// this job; the job itself still runs.
		m.opts.Logger.Warn("persist job spec failed", "job", j.ID, "err", err.Error())
	}
}

// retire deletes the job's durable spec record once every unit
// succeeded and the runner's Flush has made their results durable, so
// resuming the job would only replay store hits. A job with failures
// keeps its record — the next boot retries the failed units — and so does
// one whose flush ctx cut short.
func (m *Manager) retire(ctx context.Context, j *Job) {
	if m.opts.Store == nil {
		return
	}
	j.mu.Lock()
	failed := j.failed
	j.mu.Unlock()
	if failed == 0 && m.opts.Runner.Flush(ctx) == nil {
		m.opts.Store.Delete(storeKey(j.ID))
	}
}

// Recover re-materializes every persisted job from the durable store:
// specs are re-decomposed (deterministically, to the same units and job
// ID) and every unit re-runs through the pipeline, where finished units
// come back as store hits and only the gap actually simulates. Call it
// once, after the store is open and before serving traffic.
func (m *Manager) Recover() (int, error) {
	if m.opts.Store == nil {
		return 0, nil
	}
	n := 0
	for _, key := range m.opts.Store.Keys(jobKeyPrefix) {
		id, ok := jobIDFromStoreKey(key)
		if !ok {
			continue
		}
		e, found, err := m.opts.Store.Get(key)
		if err != nil || !found {
			continue // corrupt record: quarantined by the store
		}
		spec, err := unmarshalSpec(e.Body)
		if err != nil {
			m.opts.Logger.Warn("dropping undecodable job record", "key", key, "err", err.Error())
			m.opts.Store.Delete(key)
			continue
		}
		j, existing, err := m.submit(spec, true)
		if err != nil {
			// A spec that no longer passes admission (limits tightened
			// across the restart) cannot run; keep the record for the
			// operator but don't retry it every boot hereafter.
			m.opts.Logger.Warn("persisted job no longer admissible", "key", key, "err", err.Error())
			continue
		}
		if j.ID != id {
			// The derivation drifted — a bug worth failing loudly over,
			// since clients hold URLs containing the old ID.
			return n, fmt.Errorf("jobs: recovered job re-derived as %s, record says %s", j.ID, id)
		}
		if !existing {
			n++
		}
	}
	return n, nil
}

// runBatch executes units [lo, hi) of the job as ONE runner batch: one
// scheduler dispatch and one trace, and on a backend one worker
// occupation and one store group commit — the per-unit fixed costs that
// dominate campaigns of small runs, paid once and amortized across the
// slice. Each unit still completes individually (own event, own
// canonical key). It runs on a scheduler dispatch slot.
func (m *Manager) runBatch(ctx context.Context, j *Job, lo, hi int) {
	reqs := make([]service.RunRequest, 0, hi-lo)
	idx := make([]int, 0, hi-lo)
	for u := lo; u < hi; u++ {
		if j.markRunning(u) {
			reqs = append(reqs, j.Units[u].Req)
			idx = append(idx, u)
		}
	}
	if len(reqs) == 0 {
		return
	}
	// The batch's deadline scales with its size — each unit keeps its
	// per-unit time budget — clamped to the same ceiling as any request.
	unitTimeout := service.RequestTimeout(reqs[0].TimeoutMs, m.opts.Service)
	timeout := unitTimeout * time.Duration(len(reqs))
	if timeout > m.opts.Service.MaxTimeout {
		timeout = m.opts.Service.MaxTimeout
	}
	tr := obs.NewTrace(obs.NewRequestID(), "sweep-batch")
	tr.SetTraceID(j.root.TraceID())
	tr.SetParentSpanID(j.root.SpanID())
	tr.SetAttr("job", j.ID)
	tr.SetAttr("units", fmt.Sprintf("%d-%d", lo, hi-1))
	tr.SetAttr("tenant", j.Spec.Tenant)
	m.Metrics.UnitsInFlight.Add(int64(len(reqs)))
	defer m.Metrics.UnitsInFlight.Add(-int64(len(reqs)))

	bctx, cancel := context.WithTimeout(obs.WithTrace(ctx, tr), timeout)
	defer cancel()
	// Bridge the job's DELETE cancellation into the batch's context, so
	// the Runner sees its caller leave (see Job.cancelCtx).
	stop := context.AfterFunc(j.cancelCtx, cancel)
	defer stop()
	vals, errs := m.runWithRetry(bctx, timeout, reqs)
	failed, stopped := 0, 0
	for i, u := range idx {
		// ctx is done only once Manager.Close has begun.
		switch j.complete(u, vals[i], errs[i], ctx.Err() != nil) {
		case "cancelled":
			stopped++
			m.Metrics.UnitsCancelled.Inc()
		case "interrupted":
			stopped++
			m.Metrics.UnitsInterrupted.Inc()
			m.opts.Logger.Info("sweep unit interrupted by shutdown", "job", j.ID, "unit", u,
				"key", j.Units[u].Key)
		case "failed":
			failed++
			m.Metrics.UnitsFailed.Inc()
			m.opts.Logger.Warn("sweep unit failed", "job", j.ID, "unit", u,
				"key", j.Units[u].Key, "err", errs[i].Error())
		default:
			m.Metrics.UnitsDone.Inc()
		}
	}
	status := 200
	var err error
	switch {
	case failed > 0:
		status = 500
		err = fmt.Errorf("%d of %d batch units failed", failed, len(idx))
	case stopped == len(idx):
		status = 499 // cancelled or drained; nobody is waiting for these units
	}
	tr.Finish(status, err)
	m.opts.Trace.Add(tr)
	m.opts.Exporter.Export(tr)
	m.finishIfDone(ctx, j)
}

// runWithRetry runs the batch, re-running with exponential backoff every
// unit the runner could not start for want of capacity (an error
// matching service.ErrQueueFull), until the batch deadline: the whole
// point of a job is that the client handed us the retry loop. Units that
// succeeded or failed terminally keep their first outcome.
func (m *Manager) runWithRetry(ctx context.Context, timeout time.Duration, reqs []service.RunRequest) ([]*coalesce.Value, []error) {
	vals, errs := m.opts.Runner.RunUnits(ctx, timeout, reqs)
	backoff := 2 * time.Millisecond
	for {
		var retry []int
		for i, err := range errs {
			if errors.Is(err, service.ErrQueueFull) {
				retry = append(retry, i)
			}
		}
		if len(retry) == 0 {
			return vals, errs
		}
		m.Metrics.UnitRetries.Add(uint64(len(retry)))
		select {
		case <-ctx.Done():
			for _, i := range retry {
				errs[i] = ctx.Err()
			}
			return vals, errs
		case <-time.After(backoff):
		}
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
		again := make([]service.RunRequest, len(retry))
		for k, i := range retry {
			again[k] = reqs[i]
		}
		v, e := m.opts.Runner.RunUnits(ctx, timeout, again)
		for k, i := range retry {
			vals[i], errs[i] = v[k], e[k]
		}
	}
}

// finishIfDone runs the end-of-job bookkeeping once the last unit lands.
// ctx bounds the wait for the job's results to become durable (retire).
func (m *Manager) finishIfDone(ctx context.Context, j *Job) {
	if !j.Done() {
		return
	}
	_, _, done, failed, cancelled := j.CountsWithCancelled()
	// Close and export the job's root span exactly once: two units landing
	// near-simultaneously can both observe Done(), so the root bookkeeping
	// sits behind its own Once.
	j.finishOnce.Do(func() {
		status := 200
		var err error
		switch {
		case j.Cancelled():
			status = 499
		case failed > 0:
			status = 500
			err = fmt.Errorf("%d of %d units failed", failed, len(j.Units))
		}
		j.root.SetAttr("done", fmt.Sprintf("%d", done))
		j.root.Finish(status, err)
		m.opts.Trace.Add(j.root)
		m.opts.Exporter.Export(j.root)
	})
	if j.Cancelled() {
		// Cancel already counted the job and deleted its record; the last
		// in-flight unit only closes the books.
		m.opts.Logger.Info("sweep cancelled units drained", "job", j.ID,
			"done", done, "failed", failed, "cancelled", cancelled)
		return
	}
	m.Metrics.JobsCompleted.Inc()
	m.retire(ctx, j)
	m.opts.Logger.Info("sweep finished", "job", j.ID,
		"done", done, "failed", failed, "cancelled", cancelled)
}

// errBadSpec wraps spec validation failures (HTTP 400).
type errBadSpec struct{ err error }

func (e errBadSpec) Error() string { return e.err.Error() }
func (e errBadSpec) Unwrap() error { return e.err }
