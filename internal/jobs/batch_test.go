package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/coalesce"
	"repro/internal/service"
)

// gateRunner runs its first batch (a single unit at the default Batch
// of 1) through the real service, then parks every later batch on its
// context until DELETE cancels it. That pins the cancellation test's
// "mid-flight" state deterministically: however the scheduler
// interleaves, exactly one unit finishes and the rest are queued or
// parked when the DELETE lands.
type gateRunner struct {
	Runner // runs the batches it lets through, and flushes
	mu     sync.Mutex
	n      int
}

func (g *gateRunner) RunUnits(ctx context.Context, timeout time.Duration, reqs []service.RunRequest) ([]*coalesce.Value, []error) {
	g.mu.Lock()
	first := g.n == 0
	g.n++
	g.mu.Unlock()
	if !first {
		<-ctx.Done()
		return parked(ctx, len(reqs))
	}
	return g.Runner.RunUnits(ctx, timeout, reqs)
}

// TestSweepBatchedMatchesUnbatched is the jobs-layer batching
// differential: one spec run twice — per-unit scheduling on one fresh
// service, Batch=4 on another — must produce byte-identical result
// records for every canonical key, with identical unit counts. Batching
// changes the execution economics (one dispatch, one worker, one group
// commit per slice), never the results.
func TestSweepBatchedMatchesUnbatched(t *testing.T) {
	single, _ := newTestManager(t, nil)
	j1, existing, err := single.Submit(SweepSpec{L: 10, W: 6, Scenarios: []string{"i", "iii"}, SeedCount: 4})
	if err != nil || existing {
		t.Fatalf("unbatched submit: existing=%v err=%v", existing, err)
	}
	waitFor(t, j1.Done)

	batched, _ := newTestManager(t, nil)
	j2, existing, err := batched.Submit(SweepSpec{L: 10, W: 6, Scenarios: []string{"i", "iii"}, SeedCount: 4, Batch: 3})
	if err != nil || existing {
		t.Fatalf("batched submit: existing=%v err=%v", existing, err)
	}
	waitFor(t, j2.Done)

	if j1.ID != j2.ID {
		t.Fatalf("batch changed the job identity: %s vs %s", j1.ID, j2.ID)
	}
	want, got := doneBodies(t, j1), doneBodies(t, j2)
	if len(want) != 8 || len(got) != 8 {
		t.Fatalf("unbatched finished %d units, batched %d; want 8 each", len(want), len(got))
	}
	for key, body := range want {
		if !bytes.Equal(got[key], body) {
			t.Fatalf("key %s: batched record differs from unbatched", key)
		}
	}
}

// TestSweepBatchedAggGroupCommit runs a batched aggregate-output sweep
// over a store-backed service and pins the whole campaign pipeline's
// fixed-cost amortization: each batch costs one group commit, so the
// sweep's total fsyncs are bounded by (batches + job bookkeeping), not
// by 2×units.
func TestSweepBatchedAggGroupCommit(t *testing.T) {
	st := openStore(t, t.TempDir())
	mgr, _ := newTestManager(t, st)
	base := st.Fsyncs()
	j, _, err := mgr.Submit(SweepSpec{L: 10, W: 6, SeedCount: 16, Batch: 8, Output: "agg"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, j.Done)
	_, _, done, failed := j.Counts()
	if done != 16 || failed != 0 {
		t.Fatalf("done=%d failed=%d, want 16/0", done, failed)
	}
	// Budget: 2 batches × 2 fsyncs, job-spec persist 2, retire deletion
	// path 0–2. Unbatched, results alone would cost 32 fsyncs.
	if delta := st.Fsyncs() - base; delta > 8 {
		t.Fatalf("batched sweep of 16 units cost %d fsyncs, want <= 8", delta)
	}
	// Every unit's record is individually retrievable by canonical key.
	for _, u := range j.Units {
		if _, ok, err := st.Get(u.Key); err != nil || !ok {
			t.Fatalf("unit %d (%s) not in store: ok=%v err=%v", u.Index, u.Key, ok, err)
		}
	}
}

// TestSweepCancellation drives DELETE /v1/sweeps/{id} end to end over a
// slow sweep: queued units are cancelled in place, the event stream ends
// with a terminal "cancelled" frame, cancellation metrics move, the
// durable job record is deleted (no resurrection on the next boot), and
// a second DELETE is an idempotent no-op.
func TestSweepCancellation(t *testing.T) {
	st := openStore(t, t.TempDir())
	svc := service.New(service.Options{Workers: 1, Store: st, Logger: quiet()})
	t.Cleanup(svc.Close)
	mgr := NewManager(Options{
		Runner:      &gateRunner{Runner: svc},
		Service:     svc.Options(),
		Store:       st,
		MaxInFlight: 1,
		Logger:      quiet(),
	})
	t.Cleanup(mgr.Close)
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mgr.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// One unit completes for real; the gate parks the second in flight
	// and leaves the other 62 queued, so the job is deterministically
	// mid-flight when the DELETE lands — it can never win the race and
	// finish first.
	sub := submitSweep(t, srv.URL, `{"l":40,"w":12,"seed_count":64}`, http.StatusAccepted)
	job, ok := mgr.Job(sub.ID)
	if !ok {
		t.Fatal("submitted job not found")
	}
	if _, found, _ := st.Get(storeKey(job.ID)); !found {
		t.Fatal("job record not persisted")
	}
	// Let at least one unit complete so the job is genuinely mid-flight.
	waitFor(t, func() bool { evs, _, _ := job.eventsAfter(0); return len(evs) >= 1 })

	del := func() cancelResponse {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+sub.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
		}
		var cr cancelResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}
	if cr := del(); !cr.Cancelled {
		t.Fatal("first DELETE reported cancelled=false")
	}
	if cr := del(); cr.Cancelled {
		t.Fatal("second DELETE reported cancelled=true; want idempotent no-op")
	}

	// In-flight units drain (their contexts are cancelled), then the job
	// is terminally done with most units cancelled.
	waitFor(t, job.Done)
	if !job.Cancelled() {
		t.Fatal("job not marked cancelled")
	}
	_, _, done, failed, cancelled := job.CountsWithCancelled()
	if cancelled == 0 {
		t.Fatalf("no units cancelled (done=%d failed=%d)", done, failed)
	}
	if failed != 0 {
		t.Fatalf("%d units marked failed; interrupted units must count as cancelled", failed)
	}
	if done+cancelled != 64 {
		t.Fatalf("done=%d + cancelled=%d != 64", done, cancelled)
	}

	// The event stream of a cancelled job terminates with event:cancelled.
	resp := openStream(t, srv.URL, sub.ID, "")
	events, sawDone := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if sawDone {
		t.Fatal("cancelled job stream ended with event:done")
	}
	terminal := events[len(events)-1]
	if terminal.event != "cancelled" {
		t.Fatalf("terminal event %q, want cancelled", terminal.event)
	}

	if got := mgr.Metrics.JobsCancelled.Load(); got != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", got)
	}
	if got := mgr.Metrics.UnitsCancelled.Load(); got < uint64(cancelled) {
		t.Fatalf("units_cancelled = %d, want >= %d", got, cancelled)
	}
	// The durable record is gone: a restart must not resurrect the job.
	if _, found, _ := st.Get(storeKey(job.ID)); found {
		t.Fatal("cancelled job record still in store")
	}

	// DELETE of an unknown job 404s.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/sweep:nope", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d, want 404", resp2.StatusCode)
	}
}

// TestCancelFinishedJobIsNoOp: DELETE after completion reports
// cancelled=false and leaves the finished state untouched.
func TestCancelFinishedJobIsNoOp(t *testing.T) {
	mgr, _ := newTestManager(t, nil)
	j, _, err := mgr.Submit(SweepSpec{L: 8, W: 6, SeedCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, j.Done)
	if _, found, cancelled := mgr.Cancel(j.ID); !found || cancelled {
		t.Fatalf("cancel finished job: found=%v cancelled=%v, want true/false", found, cancelled)
	}
	if j.Cancelled() {
		t.Fatal("finished job flipped to cancelled")
	}
	_, _, done, failed := j.Counts()
	if done != 2 || failed != 0 {
		t.Fatalf("finished counts disturbed: done=%d failed=%d", done, failed)
	}
	if got := mgr.Metrics.JobsCancelled.Load(); got != 0 {
		t.Fatalf("jobs_cancelled = %d, want 0", got)
	}
}
