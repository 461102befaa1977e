package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentIdenticalRequestsRunOnce fires N identical requests at
// once and proves exactly one simulation executes: the first request
// computes, the rest either join the in-flight computation or hit the
// cache, and every response body is identical.
func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 16
	// A mid-sized grid keeps the computation in flight long enough that
	// most requests coalesce rather than hit the finished cache entry;
	// either path must avoid a second simulation.
	const body = `{"l":120,"w":30,"scenario":"udplus","seed":11}`

	var (
		start  = make(chan struct{})
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies = make(map[string]int)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := srv.Client().Post(srv.URL+"/v1/run", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d (body %q)", resp.StatusCode, b)
				return
			}
			mu.Lock()
			bodies[b]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if got := s.Metrics.SimRuns.Value(); got != 1 {
		t.Fatalf("sim runs = %d, want exactly 1 for %d identical requests", got, n)
	}
	if len(bodies) != 1 {
		t.Fatalf("got %d distinct response bodies, want 1", len(bodies))
	}
	joined := s.Metrics.DedupJoins.Value() + s.Metrics.CacheHits.Value()
	if joined != n-1 {
		t.Fatalf("dedup joins + cache hits = %d, want %d", joined, n-1)
	}
}

// TestDeadlineStopsEngineMidRun sends a request whose deadline expires
// while the simulation is running and checks (a) the client gets 504 and
// (b) the engine actually stopped early: the events metric stays strictly
// below the event count of the same request run to completion.
func TestDeadlineStopsEngineMidRun(t *testing.T) {
	// A ~100k-node grid needs several hundred thousand events — far more
	// than any machine simulates in 1ms — so the deadline reliably lands
	// mid-run.
	const body = `{"l":999,"w":100,"seed":3,"timeout_ms":1}`
	const fullBody = `{"l":999,"w":100,"seed":3}`

	// Baseline: same simulation, no deadline pressure.
	base := newTestService(t, Options{Workers: 2})
	baseSrv := httptest.NewServer(base.Handler())
	defer baseSrv.Close()
	doRun(t, baseSrv, fullBody, http.StatusOK)
	fullEvents := base.Metrics.SimEvents.Value()
	if fullEvents == 0 {
		t.Fatal("baseline run reported zero events")
	}

	s := newTestService(t, Options{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/run", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %q)", resp.StatusCode, readAll(t, resp))
	}
	if got := s.Metrics.DeadlineExceeded.Value(); got != 1 {
		t.Fatalf("deadline metric = %d, want 1", got)
	}
	// The worker may still be tearing the run down when the 504 lands;
	// wait for it to finish recording before reading the counter.
	waitFor(t, func() bool { return s.Metrics.InFlight.Value() == 0 })
	partial := s.Metrics.SimEvents.Value()
	if partial >= fullEvents {
		t.Fatalf("cancelled run recorded %d events, baseline %d; engine did not stop early",
			partial, fullEvents)
	}
}

// TestGracefulShutdownUnderLoad closes the service while requests are in
// flight: queued work finishes and is answered, later submissions get
// 503, and nothing panics or leaks.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 6
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct seeds so the requests do not coalesce.
			body := fmt.Sprintf(`{"l":60,"w":20,"seed":%d}`, i+1)
			resp, err := srv.Client().Post(srv.URL+"/v1/run", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			readAll(t, resp)
			codes <- resp.StatusCode
		}()
	}

	// Let the load reach the pool (or, on a fast machine, already pass
	// through it), then drain.
	waitFor(t, func() bool {
		return s.Metrics.InFlight.Value() > 0 || s.queued() > 0 ||
			s.Metrics.SimRuns.Value() > 0
	})
	s.Close()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Fatalf("got status %d during drain, want 200 or 503", code)
		}
	}

	// After the drain: new work refused, health reports draining.
	doRun(t, srv, `{"l":5,"w":8}`, http.StatusServiceUnavailable)
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close = %d, want 503", resp.StatusCode)
	}
	// Close is idempotent.
	s.Close()
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
