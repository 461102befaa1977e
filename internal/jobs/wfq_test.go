package jobs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// enqueue queues a single-unit task, the shape the tests below schedule.
func (s *scheduler) enqueue(tenant string, weight int, run func(ctx context.Context)) {
	s.enqueueN(tenant, weight, 1, run)
}

// plugged starts a scheduler whose single dispatch slot is occupied by a
// blocking plug task, so a test can enqueue a full workload before any
// of it dispatches. Release the returned gate to start dispatching.
func plugged(t *testing.T) (*scheduler, chan struct{}) {
	t.Helper()
	s := newScheduler(1)
	gate := make(chan struct{})
	s.enqueue("~plug", 1, func(ctx context.Context) { <-gate })
	// Wait until the plug holds the slot; everything enqueued after this
	// point sits queued behind it.
	waitFor(t, func() bool { return s.pendingCount() == 0 })
	return s, gate
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWFQExactProportionalShares pins the SFQ arithmetic deterministically:
// one dispatch slot, all work enqueued before dispatch begins, so the
// dispatch order is a pure function of the virtual tags. With weights 3:1
// every consecutive window of 4 dispatches must contain exactly 3 of the
// heavy tenant and 1 of the light one — proportional share AND bounded
// delay (no starvation window longer than one round).
func TestWFQExactProportionalShares(t *testing.T) {
	s, gate := plugged(t)
	defer s.close()

	var mu sync.Mutex
	var order []string
	record := func(name string) func(context.Context) {
		return func(ctx context.Context) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	const rounds = 25
	for i := 0; i < 3*rounds; i++ {
		s.enqueue("heavy", 3, record("heavy"))
	}
	for i := 0; i < rounds; i++ {
		s.enqueue("light", 1, record("light"))
	}
	close(gate)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 4*rounds
	})

	mu.Lock()
	defer mu.Unlock()
	for w := 0; w+4 <= len(order); w += 4 {
		heavy := 0
		for _, name := range order[w : w+4] {
			if name == "heavy" {
				heavy++
			}
		}
		if heavy != 3 {
			t.Fatalf("window [%d,%d) dispatched %d heavy tasks, want exactly 3 (order %v)",
				w, w+4, heavy, order[w:w+4])
		}
	}
}

// TestWFQNoStarvationUnderSkew is the concurrent fairness property test:
// a hog tenant floods the scheduler with far more work than a light
// tenant, tasks run concurrently with real (jittery) durations, and the
// light tenant must neither starve nor fall materially below its weighted
// share of dispatches. Run with -race, this also exercises the
// scheduler's locking under contention.
func TestWFQNoStarvationUnderSkew(t *testing.T) {
	s, gate := plugged(t)
	defer s.close()

	type stamp struct {
		tenant string
		seq    int
	}
	var mu sync.Mutex
	var dispatches []stamp
	n := 0
	record := func(tenant string) func(context.Context) {
		return func(ctx context.Context) {
			mu.Lock()
			n++
			dispatches = append(dispatches, stamp{tenant, n})
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
		}
	}
	// Skewed submission: the hog enqueues 10x the light tenant's work,
	// at equal weight. Fair queueing must still interleave them 1:1
	// while both are backlogged.
	const hogTasks, lightTasks = 300, 30
	for i := 0; i < hogTasks; i++ {
		s.enqueue("hog", 1, record("hog"))
	}
	for i := 0; i < lightTasks; i++ {
		s.enqueue("light", 1, record("light"))
	}
	close(gate)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(dispatches) == hogTasks+lightTasks
	})

	mu.Lock()
	defer mu.Unlock()
	// No starvation: the light tenant's first dispatch happens almost
	// immediately (within the first few dispatches), not after the hog's
	// backlog drains.
	first := -1
	for i, d := range dispatches {
		if d.tenant == "light" {
			first = i
			break
		}
	}
	if first < 0 || first > 4 {
		t.Fatalf("light tenant first dispatched at position %d, want <= 4", first)
	}
	// Weighted share: while both tenants are backlogged (the first
	// 2*lightTasks dispatches), the light tenant must hold its 50%% share
	// within tolerance. The single dispatch slot makes the order nearly
	// deterministic, but keep a margin for the plug transition.
	window := dispatches[:2*lightTasks]
	light := 0
	for _, d := range window {
		if d.tenant == "light" {
			light++
		}
	}
	share := float64(light) / float64(len(window))
	if share < 0.4 || share > 0.6 {
		t.Fatalf("light tenant share over contended window = %.2f, want 0.5±0.1", share)
	}
	// All of the light tenant's work completes well before the hog's
	// backlog does: its last dispatch sits inside the contended window.
	last := -1
	for i, d := range dispatches {
		if d.tenant == "light" {
			last = i
		}
	}
	if last >= 2*lightTasks+4 {
		t.Fatalf("light tenant's last dispatch at position %d, want inside the 1:1 window (< %d)",
			last, 2*lightTasks+4)
	}
}

// TestWFQIdleTenantReentersAtVirtualTime: a tenant that was idle while
// others consumed service re-enters at the current virtual clock rather
// than being owed (or charged for) the idle period — the defining
// difference between fair queueing and strict round-robin accounting.
func TestWFQIdleTenantReentersAtVirtualTime(t *testing.T) {
	s := newScheduler(1)
	defer s.close()

	var mu sync.Mutex
	var order []string
	done := make(chan struct{}, 64)
	record := func(name string) func(context.Context) {
		return func(ctx context.Context) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			done <- struct{}{}
		}
	}
	// Busy tenant consumes 50 slots while "late" is idle.
	for i := 0; i < 50; i++ {
		s.enqueue("busy", 1, record("busy"))
	}
	for i := 0; i < 50; i++ {
		<-done
	}
	// Now both enqueue one task each. If the idle period were credited,
	// "late" would owe nothing and "busy" would owe 50 units of virtual
	// time — but SFQ restamps both at the current clock, so the two tasks
	// dispatch in tag order with no historical debt: both run promptly.
	s.enqueue("busy", 1, record("busy2"))
	s.enqueue("late", 1, record("late"))
	<-done
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 52 {
		t.Fatalf("ran %d tasks, want 52", len(order))
	}
	got := map[string]bool{order[50]: true, order[51]: true}
	if !got["busy2"] || !got["late"] {
		t.Fatalf("final two dispatches = %v, want {busy2, late}", order[50:])
	}
}

// TestSchedulerCloseCancelsRunning: close cancels the context handed to
// running tasks and discards queued ones, and returns only after running
// tasks exit.
func TestSchedulerCloseCancelsRunning(t *testing.T) {
	s := newScheduler(1)
	started := make(chan struct{})
	cancelled := make(chan struct{})
	s.enqueue("a", 1, func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		close(cancelled)
	})
	ran := false
	s.enqueue("a", 1, func(ctx context.Context) { ran = true })
	<-started
	s.close()
	select {
	case <-cancelled:
	default:
		t.Fatal("close returned before the running task observed cancellation")
	}
	if ran {
		t.Fatal("queued task ran after close")
	}
	// Enqueue after close is a silent no-op, not a panic.
	s.enqueue("a", 1, func(ctx context.Context) {})
}

// TestWFQBatchFairness pins enqueueN's accounting: a task representing k
// units advances its tenant's virtual time by k/weight, so a tenant that
// batches gets exactly the same long-run unit share as one submitting
// singles — batching amortizes dispatch overhead, never buys bandwidth.
// With one dispatch slot and all work enqueued up front, the order is a
// pure function of the tags: at no prefix may the unit imbalance between
// the two equal-weight tenants exceed one batch.
func TestWFQBatchFairness(t *testing.T) {
	s, gate := plugged(t)
	defer s.close()

	const batchSize, batches = 4, 8
	const units = batchSize * batches
	var mu sync.Mutex
	type step struct {
		tenant string
		units  int
	}
	var order []step
	record := func(tenant string, k int) func(context.Context) {
		return func(ctx context.Context) {
			mu.Lock()
			order = append(order, step{tenant, k})
			mu.Unlock()
		}
	}
	for i := 0; i < batches; i++ {
		s.enqueueN("batch", 1, batchSize, record("batch", batchSize))
	}
	for i := 0; i < units; i++ {
		s.enqueue("solo", 1, record("solo", 1))
	}
	close(gate)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == batches+units
	})

	mu.Lock()
	defer mu.Unlock()
	batchUnits, soloUnits := 0, 0
	for i, st := range order {
		if st.tenant == "batch" {
			batchUnits += st.units
		} else {
			soloUnits += st.units
		}
		if diff := batchUnits - soloUnits; diff > batchSize || diff < -batchSize {
			t.Fatalf("after dispatch %d unit shares diverged: batch=%d solo=%d", i, batchUnits, soloUnits)
		}
	}
	if batchUnits != units || soloUnits != units {
		t.Fatalf("drained %d batch units and %d solo units, want %d each", batchUnits, soloUnits, units)
	}
}
