// Package coalesce is the request-coalescing half of the serving stack,
// split out of internal/service so that both a backend node (which
// executes simulations on a local worker pool) and a cluster router
// (which forwards misses to the owning shard over HTTP) share one
// implementation of "never do identical work twice".
//
// A Coalescer owns a bounded LRU of finished values keyed by canonical
// request key and a map of in-flight computations. Do answers a key from
// the cache, by joining an identical in-flight computation, or by
// submitting one new computation through the caller-provided Submit hook
// — the executor. What "execute" means is the executor's business: a
// worker-pool job on a backend, an HTTP forward on a router. The
// coalescing guarantee is the same either way: at most one computation
// per key is in flight at any moment, and a finished value is published
// to the cache before the flight deregisters, so no identical
// computation can slip in between.
package coalesce

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrShuttingDown is returned by Do after Close has begun.
var ErrShuttingDown = errors.New("coalesce: shutting down")

// Value is a finished, serialized response body ready to replay to any
// request with the same canonical key.
type Value struct {
	Body        []byte
	ContentType string
	// Events is the simulation event count behind this value, replayed
	// into responses so coalesced answers stay indistinguishable from
	// fresh ones.
	Events uint64
}

// Hooks customize a Coalescer for its executor. All fields are optional
// except Submit.
type Hooks struct {
	// Submit schedules run for execution; returning an error (queue
	// full, too many forwards in flight) aborts the flight and is
	// returned from Do verbatim. Submit is called with the coalescer's
	// lock held — it must not block (a bounded-channel send with a
	// default case, a semaphore try-acquire, a goroutine spawn).
	Submit func(run func()) error
	// SecondTier, when non-nil, probes a lower cache tier after a
	// memory miss (the durable store on a backend). A hit is promoted
	// into the memory cache. The hook is responsible for its own trace
	// notes and metrics.
	SecondTier func(ctx context.Context, key string) (*Value, bool)
	// Persist, when non-nil, runs after a successful computation's
	// waiters have been released (write-behind), on the executor's
	// goroutine. It may block to push back on the executor. A backend
	// hands the value to its store writer, which commits it after the
	// worker has moved on to its next job.
	Persist func(key string, v *Value)
	// OnHit, OnMiss, and OnJoin are metric taps: memory-cache hit,
	// memory-cache miss, and join of an in-flight computation.
	OnHit, OnMiss, OnJoin func()
}

// flight is one in-progress computation that any number of identical
// requests may wait on. Its computation runs on a context detached from
// the leader request (with the leader's timeout), so a coalesced flight
// survives the leader disconnecting; it is cancelled only when the last
// waiter leaves (waiters, guarded by Coalescer.mu, tracks membership).
type flight struct {
	done    chan struct{} // closed when val/err are final
	val     *Value
	err     error
	cancel  context.CancelFunc // cancels the flight's detached context
	waiters int                // guarded by Coalescer.mu
}

// Coalescer deduplicates computations by canonical key. Construct with
// New; all methods are safe for concurrent use.
type Coalescer struct {
	cache *lruCache
	hooks Hooks

	mu       sync.Mutex
	inflight map[string]*flight
	closed   bool
}

// New returns a Coalescer whose memory cache holds up to cacheEntries
// values (<= 0 disables caching; in-flight dedup still applies).
func New(cacheEntries int, hooks Hooks) *Coalescer {
	return &Coalescer{
		cache:    newLRUCache(cacheEntries),
		hooks:    hooks,
		inflight: make(map[string]*flight),
	}
}

// Close marks the coalescer as shutting down: subsequent Do calls that
// would start a new computation fail with ErrShuttingDown. In-flight
// computations are not cancelled — the executor drains them.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Closed reports whether Close has begun.
func (c *Coalescer) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Do returns the value for the canonical key: from the cache, from the
// second tier, by joining an identical in-flight computation, or by
// submitting compute for execution. The computation runs on a context
// detached from the caller's: it carries timeout as its deadline but is
// not cancelled by the leader request going away — only by the last
// interested waiter leaving. ctx governs only how long this caller
// waits, and carries the request trace that rides along into the
// detached context.
func (c *Coalescer) Do(ctx context.Context, timeout time.Duration, key string, compute func(context.Context) (*Value, error)) (*Value, error) {
	tr := obs.FromContext(ctx)
	endLookup := tr.StartSpan("cache-lookup")
	if v, ok := c.cache.Get(key); ok {
		endLookup()
		tr.Note("cache-hit")
		tap(c.hooks.OnHit)
		return v, nil
	}
	tap(c.hooks.OnMiss)
	// Join an already-in-flight computation before probing the second
	// tier: the flight's answer is coming anyway, so a joiner paying a
	// disk read for a guaranteed miss (the flight exists because the
	// tiers missed) would be pure waste — and under a stampede of
	// identical requests, N-1 wasted reads.
	if f := c.join(key); f != nil {
		endLookup()
		tap(c.hooks.OnJoin)
		tr.Note("join-inflight")
		return c.wait(ctx, f)
	}
	if c.hooks.SecondTier != nil {
		if v, ok := c.hooks.SecondTier(ctx, key); ok {
			endLookup()
			// Promote the second-tier hit so repeats stay in memory.
			// Read-through does not write back: the record is already
			// durable.
			c.cache.Put(key, v)
			return v, nil
		}
	}
	endLookup()

	c.mu.Lock()
	// Re-check the flight map with the lock held: a computation may have
	// started while this caller was probing the second tier.
	if f, ok := c.inflight[key]; ok {
		f.waiters++
		c.mu.Unlock()
		tap(c.hooks.OnJoin)
		tr.Note("join-inflight")
		return c.wait(ctx, f)
	}
	// Re-check the cache with the in-flight map locked: a flight that
	// finished between the fast-path lookup and here published its result
	// to the cache *before* deregistering, so one of the two checks always
	// sees it and no identical computation ever runs twice.
	if v, ok := c.cache.Get(key); ok {
		c.mu.Unlock()
		tr.Note("cache-hit")
		tap(c.hooks.OnHit)
		return v, nil
	}
	if c.closed {
		c.mu.Unlock()
		return nil, ErrShuttingDown
	}
	fctx, cancel := context.WithTimeout(context.Background(), timeout)
	// The leader's trace rides on the detached context so the computation
	// keeps reporting spans (and a late flight dump) into it even after
	// the leader's own HTTP context is gone.
	fctx = obs.WithTrace(fctx, tr)
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	enqueued := time.Now()
	run := func() {
		tr.AddSpan("queue-wait", enqueued, time.Now())
		f.val, f.err = compute(fctx)
		cancel() // release the deadline timer; the flight is decided
		if f.err == nil {
			c.cache.Put(key, f.val)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
		if f.err == nil && c.hooks.Persist != nil {
			// Write-behind: waiters are already released via f.done.
			c.hooks.Persist(key, f.val)
		}
	}
	if err := c.hooks.Submit(run); err != nil {
		c.mu.Unlock()
		cancel()
		return nil, err
	}
	c.inflight[key] = f
	c.mu.Unlock()
	return c.wait(ctx, f)
}

// DoInline answers key with the same tiering as Do — memory cache,
// in-flight join, second tier — but executes a needed computation
// synchronously on the caller's goroutine instead of submitting it to the
// executor, and skips the Persist hook, reporting fresh=true instead so
// the caller can persist the value itself. It exists for batched
// execution: a batch job already occupies an executor worker, so its
// units must not re-enter the bounded queue (self-deadlock at capacity),
// and their persists are amortized by the batch into one group commit.
// The computation runs on ctx directly — an inline flight has no detached
// lifetime; joiners of other Do calls still ride on it.
func (c *Coalescer) DoInline(ctx context.Context, key string, compute func(context.Context) (*Value, error)) (*Value, bool, error) {
	tr := obs.FromContext(ctx)
	if v, ok := c.cache.Get(key); ok {
		tap(c.hooks.OnHit)
		return v, false, nil
	}
	tap(c.hooks.OnMiss)
	if f := c.join(key); f != nil {
		tap(c.hooks.OnJoin)
		tr.Note("join-inflight")
		v, err := c.wait(ctx, f)
		return v, false, err
	}
	if c.hooks.SecondTier != nil {
		if v, ok := c.hooks.SecondTier(ctx, key); ok {
			c.cache.Put(key, v)
			return v, false, nil
		}
	}

	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		f.waiters++
		c.mu.Unlock()
		tap(c.hooks.OnJoin)
		tr.Note("join-inflight")
		v, err := c.wait(ctx, f)
		return v, false, err
	}
	if v, ok := c.cache.Get(key); ok {
		c.mu.Unlock()
		tap(c.hooks.OnHit)
		return v, false, nil
	}
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrShuttingDown
	}
	fctx, cancel := context.WithCancel(ctx)
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.err = compute(fctx)
	cancel()
	if f.err == nil {
		c.cache.Put(key, f.val)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.val, f.err == nil, f.err
}

// SubmitDetached schedules run on the executor under the coalescer's
// lock, keeping the closed-check/enqueue pair atomic with Close exactly
// like a Do-initiated submission. Batch jobs use it to claim one executor
// slot for a whole group of inline computations.
func (c *Coalescer) SubmitDetached(run func()) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrShuttingDown
	}
	return c.hooks.Submit(run)
}

// join registers the caller as a waiter on the key's in-flight
// computation, returning nil when none exists.
func (c *Coalescer) join(key string) *flight {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.inflight[key]
	if f != nil {
		f.waiters++
	}
	return f
}

// wait blocks until the flight completes or ctx is done, whichever is
// first. A waiter abandoning a flight does not cancel it for the others;
// when the *last* waiter leaves an unfinished flight, its detached context
// is cancelled so abandoned computations stop consuming the executor.
func (c *Coalescer) wait(ctx context.Context, f *flight) (*Value, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		c.mu.Unlock()
		if last {
			select {
			case <-f.done:
				// The flight finished while this waiter was leaving; its
				// result is already cached. Nothing to cancel.
			default:
				f.cancel()
			}
		}
		return nil, ctx.Err()
	}
}

// tap invokes a metric callback when set.
func tap(f func()) {
	if f != nil {
		f()
	}
}
