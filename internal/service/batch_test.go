package service

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/coalesce"
	"repro/internal/store"
)

// runOne runs r as a batch of one: the single-run path.
func runOne(s *Service, r RunRequest) (*coalesce.Value, error) {
	vals, errs := s.RunUnits(context.Background(), 30*time.Second, []RunRequest{r})
	return vals[0], errs[0]
}

// batchReqs builds a campaign-shaped batch: one spec, k seeds.
func batchReqs(t *testing.T, opts Options, k int, output string) []RunRequest {
	t.Helper()
	reqs := make([]RunRequest, k)
	for i := range reqs {
		reqs[i] = RunRequest{L: 10, W: 6, Seed: uint64(100 + i), Output: output}
		if err := reqs[i].Normalize(opts); err != nil {
			t.Fatal(err)
		}
	}
	return reqs
}

// TestRunUnitsMatchesRunUnit is the batching differential test: the
// batched path must produce, for every unit, a body byte-identical to
// the single-run path (batches of one) on an independent service.
// Batching amortizes fixed costs; it must never touch the numbers.
func TestRunUnitsMatchesRunUnit(t *testing.T) {
	const k = 12
	single := newTestService(t, Options{Workers: 2, CacheEntries: 1})
	want := make([][]byte, k)
	for i, r := range batchReqs(t, single.Options(), k, "stats") {
		v, err := runOne(single, r)
		if err != nil {
			t.Fatalf("single unit %d: %v", i, err)
		}
		want[i] = v.Body
	}

	batched := newTestService(t, Options{Workers: 2, CacheEntries: 1})
	vals, errs := batched.RunUnits(context.Background(), 30*time.Second, batchReqs(t, batched.Options(), k, "stats"))
	for i := range vals {
		if errs[i] != nil {
			t.Fatalf("batched unit %d: %v", i, errs[i])
		}
		if !bytes.Equal(vals[i].Body, want[i]) {
			t.Fatalf("unit %d: batched body differs from per-run body", i)
		}
	}
}

// TestRunUnitsAggMatchesRunUnit repeats the differential for aggregate
// output. ElapsedNs is a wall-clock measurement and legitimately varies
// between executions, so the comparison decodes both records and pins
// every simulation-derived field instead of raw bytes.
func TestRunUnitsAggMatchesRunUnit(t *testing.T) {
	const k = 8
	single := newTestService(t, Options{Workers: 2, CacheEntries: 1})
	want := make([]*store.Aggregate, k)
	for i, r := range batchReqs(t, single.Options(), k, "agg") {
		v, err := runOne(single, r)
		if err != nil {
			t.Fatalf("single unit %d: %v", i, err)
		}
		if want[i], err = store.DecodeAggregate(v.Body); err != nil {
			t.Fatal(err)
		}
	}

	batched := newTestService(t, Options{Workers: 2, CacheEntries: 1})
	vals, errs := batched.RunUnits(context.Background(), 30*time.Second, batchReqs(t, batched.Options(), k, "agg"))
	for i := range vals {
		if errs[i] != nil {
			t.Fatalf("batched unit %d: %v", i, errs[i])
		}
		got, err := store.DecodeAggregate(vals[i].Body)
		if err != nil {
			t.Fatal(err)
		}
		got.ElapsedNs = want[i].ElapsedNs
		if *got != *want[i] {
			t.Fatalf("unit %d: batched aggregate %+v differs from per-run %+v", i, got, want[i])
		}
	}
}

// TestRunUnitsGroupCommit pins the amortization contract: one batch of k
// fresh units costs one group commit (two fsyncs — segment + directory)
// instead of 2k, and every unit is individually readable from the store
// under its canonical key afterwards.
func TestRunUnitsGroupCommit(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Options{Workers: 2, CacheEntries: 1, Store: st})
	const k = 16
	reqs := batchReqs(t, s.Options(), k, "agg")
	vals, errs := s.RunUnits(context.Background(), 30*time.Second, reqs)
	for i := range vals {
		if errs[i] != nil {
			t.Fatalf("unit %d: %v", i, errs[i])
		}
	}
	if got := st.Fsyncs(); got > 2 {
		t.Fatalf("batch of %d units cost %d fsyncs, want <= 2", k, got)
	}
	if got := s.Metrics.StoreWrites.Value(); got != k {
		t.Fatalf("StoreWrites = %d, want %d", got, k)
	}
	for i, r := range reqs {
		e, ok, err := st.Get(r.CanonicalKey())
		if err != nil || !ok {
			t.Fatalf("unit %d not durable: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(e.Body, vals[i].Body) {
			t.Fatalf("unit %d: stored body differs from returned body", i)
		}
	}

	// A second identical batch answers from the memory cache (or store):
	// zero fresh units, zero additional fsyncs.
	before := st.Fsyncs()
	if _, errs := s.RunUnits(context.Background(), 30*time.Second, reqs); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if got := st.Fsyncs(); got != before {
		t.Fatalf("repeat batch cost %d extra fsyncs", got-before)
	}
}

// TestRunUnitsEmptyAndShutdown covers the edges: an empty batch is a
// no-op, and a batch after Close fails every unit with ErrShuttingDown.
func TestRunUnitsEmptyAndShutdown(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	vals, errs := s.RunUnits(context.Background(), time.Second, nil)
	if len(vals) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d vals, %d errs", len(vals), len(errs))
	}
	reqs := batchReqs(t, s.Options(), 2, "stats")
	s.Close()
	_, errs = s.RunUnits(context.Background(), time.Second, reqs)
	for i, err := range errs {
		if err != ErrShuttingDown {
			t.Fatalf("unit %d after Close: %v, want ErrShuttingDown", i, err)
		}
	}
}

// TestRunUnitsOfOneIsASingleRun: a batch of one takes the single-run
// path, a flight on the pool persisted write-behind, so RunUnits returns
// while its commit is still held, the result is served from the pending
// map, and nothing is written until the commit is released. A batch of
// k > 1 commits before returning (TestRunUnitsGroupCommit).
func TestRunUnitsOfOneIsASingleRun(t *testing.T) {
	st := openStore(t, t.TempDir(), 0)
	s, h := newHeldService(t, Options{CacheEntries: -1, Store: st})
	reqs := batchReqs(t, s.Options(), 1, "stats")

	vals, errs := s.RunUnits(context.Background(), 30*time.Second, reqs)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if got := s.Metrics.StoreWrites.Value(); got != 0 {
		t.Fatalf("store writes = %d when RunUnits of one returned, want 0: it must not commit synchronously", got)
	}
	if n := <-h.entered; n != 1 {
		t.Fatalf("the writer's commit holds %d entries, want 1", n)
	}
	again, err := runOne(s, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Body, vals[0].Body) {
		t.Fatal("pending result differs from the computed one")
	}
	if got := s.Metrics.StoreHits.Value(); got != 1 {
		t.Fatalf("store hits = %d, want 1 (the pending result)", got)
	}
	if got := s.Metrics.StoreWrites.Value(); got != 0 {
		t.Fatalf("store writes = %d before the commit was released, want 0", got)
	}
	h.releaseAll()
	s.Close()
	if got := s.Metrics.StoreWrites.Value(); got != 1 {
		t.Fatalf("store writes = %d after Close, want 1", got)
	}
	if got := s.Metrics.SimRuns.Value(); got != 1 {
		t.Fatalf("sim runs = %d, want 1", got)
	}
	requireStored(t, st, reqs, vals)
}

// TestRunUnitsAbandonedBatchStartsNoUnit: a batch whose caller has left
// before it reaches a worker simulates nothing. The only worker is held
// until the caller has cancelled, so the batch is still queued then.
func TestRunUnitsAbandonedBatchStartsNoUnit(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	reqs := batchReqs(t, s.Options(), 8, "stats")
	held, release := make(chan struct{}), make(chan struct{})
	if err := s.coal.SubmitDetached(func() { close(held); <-release }); err != nil {
		t.Fatal(err)
	}
	<-held
	before := s.Metrics.SimRuns.Value()

	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan []error, 1)
	go func() {
		_, errs := s.RunUnits(ctx, 30*time.Second, reqs)
		returned <- errs
	}()
	for len(s.jobs) == 0 {
		time.Sleep(time.Millisecond) // until the batch is queued behind the held worker
	}
	cancel()
	for i, err := range <-returned {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("unit %d of the abandoned batch: %v, want context.Canceled", i, err)
		}
	}
	close(release)
	drainWorkers(t, s)
	if got := s.Metrics.SimRuns.Value() - before; got != 0 {
		t.Fatalf("the abandoned batch simulated %d units, want 0", got)
	}
}
