package jobs

import (
	"context"
	"sync"
)

// This file is the jobs scheduler: start-time weighted fair queueing
// (SFQ) across tenants, feeding a bounded number of concurrently
// dispatched batches of units into the Runner (on a backend, the
// service's worker pool; on a router, forwards to the units' owning
// shards).
//
// Each tenant is one flow with a FIFO of pending units. A unit arriving
// for tenant T is stamped with a virtual start tag S = max(V, T's last
// finish tag) and a finish tag F = S + 1/weight(T); dispatch always
// picks the queued unit with the smallest F and advances the virtual
// clock V to that unit's S. The classic SFQ properties follow: a
// backlogged tenant's long-run dispatch share is proportional to its
// weight, and a tenant that went idle re-enters at the current virtual
// time — it is neither starved by backlogged tenants nor owed the
// service it declined to use while idle. TestWFQ* pin both properties.

// task is one schedulable unit: an opaque closure plus its fair-queueing
// tags. The scheduler runs closures; it knows nothing about jobs.
type task struct {
	run           func(ctx context.Context)
	start, finish float64 // SFQ virtual tags
}

// tenantQ is one flow: a FIFO of stamped tasks.
type tenantQ struct {
	weight     int
	queue      []task
	lastFinish float64
}

// scheduler dispatches enqueued tasks with SFQ ordering, at most
// maxInflight concurrently. Construct with newScheduler; enqueue and
// close are safe for concurrent use.
type scheduler struct {
	ctx    context.Context // base context of every dispatched task
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenantQ
	vtime    float64
	pending  int
	inflight int
	max      int
	closed   bool

	wg sync.WaitGroup // dispatch loop + running tasks
}

// newScheduler starts a scheduler dispatching at most maxInflight tasks
// concurrently. Tasks receive a context cancelled by close.
func newScheduler(maxInflight int) *scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	s := &scheduler{
		ctx:     ctx,
		cancel:  cancel,
		tenants: make(map[string]*tenantQ),
		max:     maxInflight,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.loop()
	return s
}

// enqueueN stamps one task that represents k units of work with the
// tenant's next SFQ tags and queues it. Its finish tag advances the
// tenant's virtual time by k/weight, so a tenant submitting batches of k
// is charged exactly as if it had enqueued k singles — batching
// amortizes dispatch overhead without buying extra scheduler share
// (TestWFQBatchFairness). weight updates the tenant's weight for this and
// subsequent tasks (latest submission wins). Enqueueing on a closed
// scheduler drops the task silently — the manager is shutting down and
// its jobs are about to lose their unit contexts anyway.
func (s *scheduler) enqueueN(tenant string, weight, k int, run func(ctx context.Context)) {
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	tq := s.tenants[tenant]
	if tq == nil {
		tq = &tenantQ{}
		s.tenants[tenant] = tq
	}
	tq.weight = weight
	start := max(s.vtime, tq.lastFinish)
	finish := start + float64(k)/float64(weight)
	tq.lastFinish = finish
	tq.queue = append(tq.queue, task{run: run, start: start, finish: finish})
	s.pending++
	s.cond.Signal()
}

// pendingCount returns the number of queued-but-not-dispatched tasks.
func (s *scheduler) pendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// loop is the dispatch goroutine: pick the minimum-finish-tag head task
// across tenants whenever a concurrency slot is free.
func (s *scheduler) loop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && (s.pending == 0 || s.inflight >= s.max) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		var best *tenantQ
		var bestName string
		for name, tq := range s.tenants {
			if len(tq.queue) == 0 {
				continue
			}
			// Ties broken by tenant name so dispatch order is
			// deterministic regardless of map iteration order.
			if best == nil || tq.queue[0].finish < best.queue[0].finish ||
				(tq.queue[0].finish == best.queue[0].finish && name < bestName) {
				best, bestName = tq, name
			}
		}
		t := best.queue[0]
		best.queue = best.queue[1:]
		if len(best.queue) == 0 {
			// Drop idle flows: lastFinish must not haunt a tenant that
			// resubmits much later (it re-enters at the virtual clock).
			delete(s.tenants, bestName)
		}
		if t.start > s.vtime {
			s.vtime = t.start
		}
		s.pending--
		s.inflight++
		s.wg.Add(1)
		s.mu.Unlock()

		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				s.inflight--
				s.cond.Signal()
				s.mu.Unlock()
			}()
			t.run(s.ctx)
		}()
	}
}

// close stops dispatching, cancels the context of every running task,
// and waits for them to return. Queued tasks are discarded.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}
