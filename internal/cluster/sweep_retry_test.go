package cluster

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

// TestRouterSweepRetriesShardQueueFull: a sweep unit that its owning
// shard sheds with 429 is retried, not failed, with no retry option on
// the manager. The shard answers its first three POST /v1/run with the
// service's 429 and serves the rest through a real service. With one
// dispatch slot the first unit takes all three, so the sweep must finish
// four of four units after exactly three retries.
func TestRouterSweepRetriesShardQueueFull(t *testing.T) {
	if !errors.Is(ErrBusy, service.ErrQueueFull) {
		t.Error("cluster.ErrBusy does not match service.ErrQueueFull")
	}
	svc := service.New(service.Options{Workers: 1, Logger: quietLogger()})
	t.Cleanup(svc.Close)
	served := svc.Handler()
	var runs atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/run" && runs.Add(1) <= 3 {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"queue full; retry later","request_id":"`+req.Header.Get("X-Request-ID")+`"}`+"\n")
			return
		}
		served.ServeHTTP(w, req)
	}))
	t.Cleanup(shard.Close)
	rt, err := New(Options{
		Peers:          []string{shard.URL},
		HealthInterval: 50 * time.Millisecond,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	mgr := jobs.NewManager(jobs.Options{Runner: rt, MaxInFlight: 1, Logger: quietLogger()})
	t.Cleanup(mgr.Close)

	j, _, err := mgr.Submit(jobs.SweepSpec{L: 10, W: 6, SeedCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !j.Done(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("sweep did not finish within 10s")
		}
	}
	if _, _, done, failed := j.Counts(); done != 4 || failed != 0 {
		t.Fatalf("done=%d failed=%d, want 4/0", done, failed)
	}
	if got := mgr.Metrics.UnitRetries.Load(); got != 3 {
		t.Fatalf("unit retries = %d, want 3", got)
	}
}
