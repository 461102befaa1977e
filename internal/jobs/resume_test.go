package jobs

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/coalesce"
	"repro/internal/service"
	"repro/internal/store"
)

// openStore opens the durable tier over dir, failing the test on error.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// doneBodies collects key → decoded result body for every successfully
// completed unit in the job's event log.
func doneBodies(t *testing.T, j *Job) map[string][]byte {
	t.Helper()
	events, _, _ := j.eventsAfter(0)
	out := make(map[string][]byte, len(events))
	for _, ev := range events {
		if ev.Status != "done" {
			continue
		}
		entry, err := store.DecodeEntry(ev.Record)
		if err != nil {
			t.Fatalf("seq %d record: %v", ev.Seq, err)
		}
		out[ev.Key] = entry.Body
	}
	return out
}

// cutRunner passes its first cut batches (units, at the default Batch
// of 1) through to the real service and parks every later one on its
// context: the deterministic stand-in for a process dying mid-sweep with
// work still queued.
type cutRunner struct {
	Runner // runs the batches it lets through, and flushes
	mu     sync.Mutex
	n      int
	cut    int
}

func (c *cutRunner) RunUnits(ctx context.Context, timeout time.Duration, reqs []service.RunRequest) ([]*coalesce.Value, []error) {
	c.mu.Lock()
	idx := c.n
	c.n++
	c.mu.Unlock()
	if idx >= c.cut {
		<-ctx.Done()
		return parked(ctx, len(reqs))
	}
	return c.Runner.RunUnits(ctx, timeout, reqs)
}

// parked reports each of n units as interrupted by ctx, the answer of a
// runner that parked a batch until its caller left.
func parked(ctx context.Context, n int) ([]*coalesce.Value, []error) {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = ctx.Err()
	}
	return make([]*coalesce.Value, n), errs
}

// TestSweepCrashRestartRecomputesOnlyTheGap is the acceptance scenario
// for durable jobs: kill the process at a randomized point mid-sweep,
// restart over the same store directory, and prove — through the
// store_hits and sim-run counters alone — that only the unfinished units
// recompute, while every result is byte-identical to the first life's.
func TestSweepCrashRestartRecomputesOnlyTheGap(t *testing.T) {
	dir := t.TempDir()
	spec := SweepSpec{
		L: 12, W: 6,
		Scenarios: []string{"iii", "zero"},
		SeedCount: 4,
	}
	const units = 2 * 4

	// First life: kill at a randomized point strictly inside the sweep.
	// The cut is enforced by the runner itself — units past it park on
	// their context until Close cancels them — because enforcing it by
	// timing is hopeless: cached-grid units finish in microseconds, so a
	// whole small sweep can complete between a poll observing `cut` done
	// units and the Close landing.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	cut := 1 + rng.Intn(units-2)
	t.Logf("killing after %d of %d units", cut, units)
	st1 := openStore(t, dir)
	svc1 := service.New(service.Options{Workers: 2, Store: st1, Logger: quiet()})
	mgr1 := NewManager(Options{
		Runner: &cutRunner{Runner: svc1, cut: cut}, Service: svc1.Options(), Store: st1,
		MaxInFlight: 1, Logger: quiet(),
	})
	j1, existing, err := mgr1.Submit(spec)
	if err != nil || existing {
		t.Fatalf("submit: %v (existing=%v)", err, existing)
	}
	waitFor(t, func() bool { _, _, done, _ := j1.Counts(); return done >= cut })
	mgr1.Close()

	// Ground truth after the "crash": whatever managed to finish. Wait
	// for its write-behind to land, as a real drain would.
	_, _, finished, _ := j1.Counts()
	if finished >= units {
		t.Fatalf("job finished (%d units) before the kill landed", finished)
	}
	waitFor(t, func() bool { return svc1.Metrics.StoreWrites.Value() >= uint64(finished) })
	firstBodies := doneBodies(t, j1)
	svc1.Close()

	// Second life: fresh store, service, and manager over the same dir.
	st2 := openStore(t, dir)
	svc2 := service.New(service.Options{Workers: 2, Store: st2, Logger: quiet()})
	defer svc2.Close()
	mgr2 := NewManager(Options{
		Runner: svc2, Service: svc2.Options(), Store: st2,
		MaxInFlight: 1, Logger: quiet(),
	})
	defer mgr2.Close()
	n, err := mgr2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Recover resumed %d jobs, want 1", n)
	}
	j2, ok := mgr2.Job(j1.ID)
	if !ok {
		t.Fatalf("recovered manager does not know job %s (same spec must re-derive the same ID)", j1.ID)
	}
	if !j2.Resumed {
		t.Fatal("recovered job not marked resumed")
	}
	waitFor(t, j2.Done)
	if _, _, done2, failed2 := j2.Counts(); done2 != units || failed2 != 0 {
		t.Fatalf("resumed job finished with done=%d failed=%d, want %d/0", done2, failed2, units)
	}

	// The counters are the proof: every unit that survived the crash is
	// answered from the durable store, and only the gap simulates.
	if got, want := svc2.Metrics.SimRuns.Value(), uint64(units-finished); got != want {
		t.Fatalf("second life ran %d simulations, want exactly the gap %d", got, want)
	}
	if got, want := svc2.Metrics.StoreHits.Value(), uint64(finished); got != want {
		t.Fatalf("second life store hits = %d, want %d (the finished units)", got, want)
	}

	// Determinism: results the first life produced match the second
	// life's byte for byte.
	secondBodies := doneBodies(t, j2)
	if len(secondBodies) != units {
		t.Fatalf("second life has %d result bodies, want %d", len(secondBodies), units)
	}
	for key, body := range firstBodies {
		if !bytes.Equal(body, secondBodies[key]) {
			t.Fatalf("key %s: resumed result differs from pre-crash result", key)
		}
	}

	// The completed job retires its durable spec record, so a third boot
	// has nothing to resume.
	waitFor(t, func() bool { return len(st2.Keys(jobKeyPrefix)) == 0 })
	mgr3 := NewManager(Options{
		Runner: svc2, Service: svc2.Options(), Store: st2, Logger: quiet(),
	})
	defer mgr3.Close()
	if n, err := mgr3.Recover(); err != nil || n != 0 {
		t.Fatalf("third boot recovered %d jobs (%v), want 0", n, err)
	}
}

// TestDrainInterruptsUnits: a unit that Manager.Close (a drain) cuts off
// is interrupted, not failed. No failure is counted and no event is
// emitted; the unit goes back to pending, so the job stays unfinished
// and keeps its durable record for the next boot's Recover.
func TestDrainInterruptsUnits(t *testing.T) {
	st := openStore(t, t.TempDir())
	svc := service.New(service.Options{Workers: 2, Store: st, Logger: quiet()})
	defer svc.Close()
	mgr := NewManager(Options{
		Runner: &cutRunner{Runner: svc, cut: 1}, Service: svc.Options(), Store: st,
		MaxInFlight: 2, Logger: quiet(),
	})
	j, _, err := mgr.Submit(SweepSpec{L: 12, W: 6, Scenarios: []string{"iii"}, SeedCount: 6})
	if err != nil {
		t.Fatal(err)
	}
	// One unit runs; the next dispatched ones park on the cut.
	waitFor(t, func() bool { _, running, done, _ := j.Counts(); return done == 1 && running >= 1 })
	mgr.Close()

	if got := mgr.Metrics.UnitsFailed.Load(); got != 0 {
		t.Errorf("UnitsFailed = %d after a drain, want 0", got)
	}
	if got := mgr.Metrics.UnitsInterrupted.Load(); got < 1 {
		t.Errorf("UnitsInterrupted = %d, want at least 1", got)
	}
	if pending, running, done, failed := j.Counts(); pending != len(j.Units)-1 || running != 0 || done != 1 || failed != 0 {
		t.Errorf("counts pending=%d running=%d done=%d failed=%d, want %d/0/1/0",
			pending, running, done, failed, len(j.Units)-1)
	}
	events, _, done := j.eventsAfter(0)
	var statuses []string
	for _, ev := range events {
		statuses = append(statuses, ev.Status)
	}
	if len(events) != 1 || events[0].Status != "done" || done {
		t.Errorf("job log %v (done=%v), want one \"done\" event and an unfinished job", statuses, done)
	}
	if keys := st.Keys(jobKeyPrefix); len(keys) != 1 {
		t.Errorf("job records after the drain: %v, want the job's", keys)
	}
}

// TestSweepRecoverSkipsGarbageRecords: a job record that no longer
// decodes is dropped (and deleted) rather than wedging every boot.
func TestSweepRecoverSkipsGarbageRecords(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Put(store.Entry{
		Key:         storeKey("sweep:deadbeef"),
		ContentType: "application/json",
		Body:        []byte("not a spec"),
	}); err != nil {
		t.Fatal(err)
	}
	mgr, _ := newTestManager(t, st)
	if n, err := mgr.Recover(); err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v; want 0, nil", n, err)
	}
	if keys := st.Keys(jobKeyPrefix); len(keys) != 0 {
		t.Fatalf("undecodable job record survived recovery: %v", keys)
	}
}
