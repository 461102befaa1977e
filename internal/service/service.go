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

// ErrShuttingDown is returned for submissions after Close has begun.
var ErrShuttingDown = errors.New("service: shutting down")

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
}

// New starts a Service with opts.Workers worker goroutines.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:    opts,
		Metrics: NewMetrics("run", "spec"),
		store:   opts.Store,
		ring:    obs.NewRing(opts.TraceRing),
		jobs:    make(chan func(), opts.QueueDepth),
	}
	s.coal = coalesce.New(opts.CacheEntries, coalesce.Hooks{
		Submit:     s.submit,
		SecondTier: s.storeGet,
		Persist:    s.storePut,
		OnHit:      s.Metrics.CacheHits.Inc,
		OnMiss:     s.Metrics.CacheMisses.Inc,
		OnJoin:     s.Metrics.DedupJoins.Inc,
	})
	if s.store != nil {
		s.Metrics.StoreBytes.Set(s.store.Bytes())
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.jobs {
				s.Metrics.QueueDepth.Set(int64(len(s.jobs)))
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
		s.Metrics.QueueDepth.Set(int64(len(s.jobs)))
		return nil
	default:
		s.Metrics.QueueRejects.Inc()
		return ErrQueueFull
	}
}

// Options returns the resolved configuration.
func (s *Service) Options() Options { return s.opts }

// Closed reports whether Close has begun.
func (s *Service) Closed() bool { return s.coal.Closed() }

// Close drains the service: no new jobs are accepted, already queued and
// running jobs finish (their waiters get results), then the workers exit.
// It is idempotent and safe to call concurrently with requests.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		// Coalescer first: once it reports closed, no submit can race the
		// channel close below (submit runs under the coalescer's lock).
		s.coal.Close()
		close(s.jobs)
	})
	s.wg.Wait()
}

// result returns the response for the canonical key: from the cache, the
// durable store, by joining an identical in-flight computation, or by
// enqueueing compute on the worker pool. See coalesce.Coalescer.Do for
// the lifetime rules; failures specific to local execution are
// ErrQueueFull (bounded queue) and ErrShuttingDown (after Close).
func (s *Service) result(ctx context.Context, timeout time.Duration, key string, compute func(context.Context) (*coalesce.Value, error)) (*coalesce.Value, error) {
	v, err := s.coal.Do(ctx, timeout, key, compute)
	if errors.Is(err, coalesce.ErrShuttingDown) {
		return nil, ErrShuttingDown
	}
	return v, err
}

// RunUnit executes one normalized RunRequest through the full serving
// pipeline — memory cache, durable store read-through, in-flight dedup,
// bounded worker pool, write-behind persist — exactly as if it had
// arrived as its own POST /v1/run. The request must already be
// Normalized; its canonical key is byte-identical to the equivalent
// single-run HTTP request, so sweep-job units dedupe against interactive
// traffic and against each other across the LRU, the store, and the
// fleet. ctx bounds how long the caller waits; timeout is the detached
// computation's own deadline.
//
// internal/jobs is the intended caller: it is the seam that lets a sweep
// job's scheduler feed units into the same worker pool that serves
// single-run traffic, and it is what makes job resume free — a unit
// whose result already sits in the durable store comes back as a store
// hit with zero simulation work.
func (s *Service) RunUnit(ctx context.Context, timeout time.Duration, r RunRequest) (*coalesce.Value, error) {
	return s.result(ctx, timeout, r.CanonicalKey(),
		func(fctx context.Context) (*coalesce.Value, error) { return s.computeRun(fctx, r) })
}

// RunUnits executes a batch of normalized RunRequests as ONE scheduled
// job: one queue slot, one worker, one trace, one store flush. Each unit
// keeps its canonical per-run key — it hits the memory cache, joins
// in-flight singles, and reads through the durable store exactly like
// RunUnit — but units that actually compute run back-to-back on the
// batch worker's goroutine, so consecutive same-shape runs reuse one hot
// arena and the shared grid, and their results are persisted in a single
// group commit (one segment, one fsync window) instead of per-record
// writes. This is the campaign fast path: per-run fixed costs — queue
// round-trip, scheduler accounting, trace allocation, two fsyncs — are
// paid once per batch and amortized k-fold.
//
// The returned slices are index-aligned with reqs. A unit failure (bad
// request, cancellation) is reported in errs[i] without aborting the
// rest of the batch; once the batch deadline or ctx expires, remaining
// units fail fast with the context error.
func (s *Service) RunUnits(ctx context.Context, timeout time.Duration, reqs []RunRequest) ([]*coalesce.Value, []error) {
	vals := make([]*coalesce.Value, len(reqs))
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
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
		s.storePutGroup(group)
	}
	if err := s.coal.SubmitDetached(job); err != nil {
		if errors.Is(err, coalesce.ErrShuttingDown) {
			err = ErrShuttingDown
		}
		for i := range errs {
			errs[i] = err
		}
		return vals, errs
	}
	select {
	case <-done:
		return vals, errs
	case <-ctx.Done():
		// The batch keeps running detached (its results are still
		// published to the cache and store); this caller stops waiting.
		// vals/errs stay with the running job — return fresh slices so
		// the caller never reads memory the batch is still writing.
		abandoned := make([]error, len(reqs))
		for i := range abandoned {
			abandoned[i] = ctx.Err()
		}
		return make([]*coalesce.Value, len(reqs)), abandoned
	}
}

// Ring returns the service's completed-request trace ring (the one
// behind GET /v1/debug/requests). The jobs manager adds its per-unit
// traces here so sweep units are debuggable alongside HTTP requests.
func (s *Service) Ring() *obs.Ring { return s.ring }
