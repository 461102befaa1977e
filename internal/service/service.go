// Package service turns the HEX simulator into an embeddable backend: a
// bounded worker pool with admission control, a deterministic result cache
// with in-flight request deduplication, per-request deadlines that cancel
// simulations mid-run, and a metrics registry. cmd/hexd wraps it in an
// HTTP daemon.
//
// The package is split along the canonicalize/execute seam: request
// canonicalization (normalization, canonical key derivation) lives here
// in requests.go, coalescing (result cache + in-flight singleflight) is
// the shared internal/coalesce package, and this file owns local
// execution — the bounded worker pool that actually runs simulations.
// internal/cluster composes the same canonicalization and coalescing
// with a forwarding executor to run hexd as a sharded fleet.
//
// Concurrency model: requests are canonicalized into a stable key; a
// cache hit replays the stored body, a miss either joins an identical
// in-flight computation or enqueues one job on a channel bounded by
// QueueDepth. Workers (GOMAXPROCS by default) drain the channel; when it
// is full, submission fails immediately with ErrQueueFull so the HTTP
// layer can shed load with 429 instead of accumulating goroutines.
package service

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"repro/internal/coalesce"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/store"
)

// ErrQueueFull is returned when the job queue has no room; callers should
// retry after backing off (HTTP 429).
var ErrQueueFull = errors.New("service: job queue full")

// ErrShuttingDown is returned for submissions after Close has begun. It
// is the coalescer's own error, which the serving pipeline returns as is.
var ErrShuttingDown = coalesce.ErrShuttingDown

// errBadRequest wraps request-dependent failures (infeasible fault count,
// invalid grid) that map to HTTP 400 rather than 500.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

// Options configure a Service. The zero value selects sane defaults.
type Options struct {
	// Workers is the number of simulation workers (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 4×Workers). When full, submissions fail with ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the result LRU (default 512); negative disables
	// caching.
	CacheEntries int
	// DefaultTimeout applies when a request carries no deadline
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request deadlines (default 2m).
	MaxTimeout time.Duration
	// MaxNodes bounds the grid size (L+1)·W of a request (default 250000).
	MaxNodes int
	// MaxRuns bounds the Runs field of a /v1/spec request (default 2000).
	MaxRuns int
	// Store, when non-nil, is the durable second cache tier: a memory
	// miss probes it before computing (read-through) and completed
	// computations are persisted after waiters are released
	// (write-behind). Results are deterministic functions of their
	// canonical key, so a disk hit is byte-identical to a recompute.
	Store *store.Store
	// Logger receives the service's structured request log (one line per
	// completed request, Warn for rejections and failures). Default
	// slog.Default().
	Logger *slog.Logger
	// TraceRing bounds the ring of completed request traces served by
	// GET /v1/debug/requests (default 64); negative disables the ring.
	TraceRing int
	// FlightEvents bounds the sim flight recorder armed per-request with
	// /v1/run?trace=1: the recorder retains the last FlightEvents events
	// of the run (default 4096); negative disables flight recording.
	FlightEvents int
	// Exporter, when non-nil, receives every completed request trace for
	// OTLP export (hexd -otlp-endpoint). A nil exporter is a valid no-op,
	// so the serving path is identical with exporting disabled.
	Exporter *export.Exporter
	// Arm evaluates post-run capture predicates (obs.ArmPolicy): when a
	// run's outcome trips one — skew outside the Theorem-1 envelope, an
	// error, a failed audit, an outlier wall time — the unit is re-run
	// with the flight recorder armed and the dump attached to its trace.
	// nil (the default) disables predicate-armed capture.
	Arm *obs.Armer
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 512
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 2 * time.Minute
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 250000
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 2000
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.TraceRing == 0 {
		o.TraceRing = 64
	}
	if o.FlightEvents == 0 {
		o.FlightEvents = 4096
	}
	return o
}

// Resolved returns o with unset fields filled with their defaults. The
// cluster router uses it to share the service's admission limits
// (MaxNodes, MaxRuns, deadline clamps) without re-stating the defaults.
func (o Options) Resolved() Options { return o.withDefaults() }

// Service executes canonicalized simulation requests through a bounded
// worker pool with caching and deduplication. Construct with New; all
// methods are safe for concurrent use.
type Service struct {
	opts    Options
	Metrics *Metrics
	coal    *coalesce.Coalescer
	store   *store.Store // nil when the durable tier is disabled
	ring    *obs.Ring    // completed request traces (/v1/debug/requests)

	jobs      chan func()
	wg        sync.WaitGroup
	closeOnce sync.Once

	// writes feeds the write-behind writer goroutine, and pending holds
	// the results queued on it or in its current commit (store_tier.go).
	// Both are nil without a store.
	writes    chan pendingWrite
	writer    sync.WaitGroup
	pendingMu sync.Mutex
	pending   map[string]*coalesce.Value
	committed chan struct{} // closed and replaced after every commit
}

// New starts a Service with opts.Workers worker goroutines.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:  opts,
		store: opts.Store,
		ring:  obs.NewRing(opts.TraceRing),
		jobs:  make(chan func(), opts.QueueDepth),
	}
	s.Metrics = newMetrics(s.store, s.queued)
	hooks := coalesce.Hooks{
		Submit:     s.submit,
		SecondTier: s.storeGet,
		OnHit:      s.Metrics.CacheHits.Inc,
		OnMiss:     s.Metrics.CacheMisses.Inc,
		OnJoin:     s.Metrics.DedupJoins.Inc,
	}
	if s.store != nil {
		s.writes = make(chan pendingWrite, writeQueueLen)
		s.pending = make(map[string]*coalesce.Value)
		s.committed = make(chan struct{})
		hooks.Persist = s.persist
		s.writer.Add(1)
		go s.writeBehind(commitGroup)
	}
	s.coal = coalesce.New(opts.CacheEntries, hooks)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.jobs {
				s.Metrics.InFlight.Add(1)
				job()
				s.Metrics.InFlight.Add(-1)
			}
		}()
	}
	return s
}

// submit is the coalescer's executor hook: a non-blocking enqueue on the
// bounded worker-pool channel. It is called with the coalescer's lock
// held, which makes the closed-check/enqueue pair atomic with respect to
// Close — a job can never be sent on a closed channel.
func (s *Service) submit(run func()) error {
	// Sample the queue occupancy seen by this submission (including the
	// full-queue case below) so load headroom is visible between scrapes.
	s.Metrics.QueueDepthSamples.Observe(float64(len(s.jobs)))
	select {
	case s.jobs <- run:
		return nil
	default:
		s.Metrics.QueueRejects.Inc()
		return ErrQueueFull
	}
}

// queued returns the number of jobs waiting for a worker.
func (s *Service) queued() int64 { return int64(len(s.jobs)) }

// Options returns the resolved configuration.
func (s *Service) Options() Options { return s.opts }

// Closed reports whether Close has begun.
func (s *Service) Closed() bool { return s.coal.Closed() }

// Close drains the service: no new jobs are accepted, already queued and
// running jobs finish (their waiters get results), the workers exit, and
// then the writer commits every queued result and exits, so on return
// all finished results are durable. It is idempotent and safe to call
// concurrently with requests.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		// Coalescer first: once it reports closed, no submit can race the
		// channel close below (submit runs under the coalescer's lock).
		s.coal.Close()
		close(s.jobs)
		// Exited workers queue no more results.
		s.wg.Wait()
		if s.writes != nil {
			close(s.writes)
		}
	})
	s.writer.Wait()
}

// result returns the response for the canonical key: from the cache, the
// durable store, by joining an identical in-flight computation, or by
// enqueueing compute on the worker pool. See coalesce.Coalescer.Do for
// the lifetime rules; failures specific to local execution are
// ErrQueueFull (bounded queue) and ErrShuttingDown (after Close).
func (s *Service) result(ctx context.Context, timeout time.Duration, key string, compute func(context.Context) (*coalesce.Value, error)) (*coalesce.Value, error) {
	if s.store != nil {
		compute = s.pendingCompute(key, compute)
	}
	return s.coal.Do(ctx, timeout, key, compute)
}

// RunUnits executes a batch of normalized RunRequests through the full
// serving pipeline — memory cache, durable store read-through, in-flight
// dedup, bounded worker pool — exactly as if each had arrived as its own
// POST /v1/run. Each canonical key is byte-identical to the equivalent
// single-run request's, so sweep-job units (internal/jobs is the
// intended caller) dedupe against interactive traffic and each other
// across the LRU, the store and the fleet, and a resumed job's finished
// units come back as store hits with zero simulation work. ctx bounds
// how long the caller waits; timeout is the computation's own deadline.
//
// A batch of one is a single run: a coalesced flight on the worker pool,
// persisted write-behind, and cancelled mid-run once its last waiter
// leaves. A batch of k > 1 is the campaign fast path, ONE scheduled job:
// one queue slot and one worker run the units back to back on a hot
// arena and the shared grid, and their results are committed as one
// group (one segment, one fsync window) before RunUnits returns, so
// per-run fixed costs — queue round trip, trace, fsyncs — are paid once
// per batch.
//
// The returned slices are index-aligned with reqs. A unit failure (bad
// request, cancellation) is reported in errs[i] without aborting the
// rest; a full worker queue fails every unit with ErrQueueFull. Once ctx
// is done or the batch deadline passes, the batch starts no further
// unit; the unit already running finishes, so requests that joined its
// flight still get their answer.
func (s *Service) RunUnits(ctx context.Context, timeout time.Duration, reqs []RunRequest) ([]*coalesce.Value, []error) {
	vals := make([]*coalesce.Value, len(reqs))
	errs := make([]error, len(reqs))
	switch len(reqs) {
	case 0:
		return vals, errs
	case 1:
		r := reqs[0]
		vals[0], errs[0] = s.result(ctx, timeout, r.CanonicalKey(),
			func(fctx context.Context) (*coalesce.Value, error) { return s.computeRun(fctx, r) })
		return vals, errs
	}
	tr := obs.FromContext(ctx)
	done := make(chan struct{})
	enqueued := time.Now()
	job := func() {
		defer close(done)
		tr.AddSpan("queue-wait", enqueued, time.Now())
		// The batch computes on a context detached from the caller (same
		// lifetime rule as a coalesced flight): it carries the batch
		// deadline and the caller's trace, but survives the caller
		// disconnecting so joiners of individual units still get answers.
		fctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		fctx = obs.WithTrace(fctx, tr)
		var group []store.Entry
		for i := range reqs {
			r := reqs[i]
			if err := ctx.Err(); err != nil {
				// The caller left (a DELETE, a drain): start no further unit.
				errs[i] = err
				continue
			}
			if err := fctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			v, fresh, err := s.coal.DoInline(fctx, r.CanonicalKey(),
				func(c context.Context) (*coalesce.Value, error) { return s.computeRun(c, r) })
			vals[i], errs[i] = v, err
			if fresh && err == nil {
				group = append(group, store.Entry{
					Key:         r.CanonicalKey(),
					ContentType: v.ContentType,
					Events:      v.Events,
					Body:        v.Body,
				})
			}
		}
		s.storePutGroup(group, (*store.Store).PutGroup)
	}
	if err := s.coal.SubmitDetached(job); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, errs
	}
	select {
	case <-done:
		return vals, errs
	case <-ctx.Done():
		// The unit already running finishes detached (its result is still
		// published to the cache and store) and the batch starts no
		// further unit; this caller stops waiting. vals/errs stay with the
		// running job — return fresh slices so the caller never reads
		// memory the batch is still writing.
		abandoned := make([]error, len(reqs))
		for i := range abandoned {
			abandoned[i] = ctx.Err()
		}
		return make([]*coalesce.Value, len(reqs)), abandoned
	}
}

// Ring returns the service's completed-request trace ring (the one
// behind GET /v1/debug/requests). The jobs manager adds its sweep-batch
// traces here so sweep units are debuggable alongside HTTP requests.
func (s *Service) Ring() *obs.Ring { return s.ring }
