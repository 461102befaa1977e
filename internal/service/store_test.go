package service

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// openStore opens the durable tier over dir, failing the test on error.
func openStore(t *testing.T, dir string, maxBytes int64) *store.Store {
	t.Helper()
	st, err := store.Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newStoreService builds a service backed by a store over dir.
func newStoreService(t *testing.T, dir string) *Service {
	t.Helper()
	return newTestService(t, Options{Workers: 2, Store: openStore(t, dir, 0)})
}

// flushStore waits for the write-behind of all completed computations.
func flushStore(t *testing.T, s *Service, writes uint64) {
	t.Helper()
	waitFor(t, func() bool { return s.Metrics.StoreWrites.Value() >= writes })
}

// TestRestartServesFromStore is the end-to-end restart scenario: run
// requests against one service instance, tear it down, start a fresh
// instance over the same store directory, and demand the second
// instance serve the same requests from disk — byte-identical bodies,
// zero simulations, store_hits incremented.
func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	const runBody = `{"l":20,"w":10,"scenario":"iii","seed":7}`
	const specBody = `{"l":10,"w":8,"runs":3,"seed":5}`

	s1 := newStoreService(t, dir)
	srv1 := httptest.NewServer(s1.Handler())
	firstRun := doRun(t, srv1, runBody, 200)
	firstSpec := doPost(t, srv1, "/v1/spec", specBody, 200)
	flushStore(t, s1, 2)
	srv1.Close()
	s1.Close() // drains workers; every write-behind has landed

	// "Restart": a brand-new service and store recover purely from disk.
	s2 := newStoreService(t, dir)
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()

	secondRun := doRun(t, srv2, runBody, 200)
	secondSpec := doPost(t, srv2, "/v1/spec", specBody, 200)
	if secondRun != firstRun {
		t.Fatalf("restarted /v1/run body differs from original:\n%s\nvs\n%s", secondRun, firstRun)
	}
	if secondSpec != firstSpec {
		t.Fatalf("restarted /v1/spec body differs from original:\n%s\nvs\n%s", secondSpec, firstSpec)
	}
	if got := s2.Metrics.SimRuns.Value(); got != 0 {
		t.Fatalf("restarted service ran %d simulations, want 0 (disk hits)", got)
	}
	if got := s2.Metrics.StoreHits.Value(); got != 2 {
		t.Fatalf("store hits = %d, want 2", got)
	}
	if got := s2.Metrics.StoreWrites.Value(); got != 0 {
		t.Fatalf("disk hits wrote back %d records, want 0", got)
	}

	// The disk hit is promoted to memory: a repeat is a cache hit that
	// never touches the store again.
	doRun(t, srv2, runBody, 200)
	if got := s2.Metrics.CacheHits.Value(); got != 1 {
		t.Fatalf("cache hits after repeat = %d, want 1", got)
	}
	if got := s2.Metrics.StoreHits.Value(); got != 2 {
		t.Fatalf("store hits after repeat = %d, want still 2", got)
	}

	// The new tier is visible in the metrics exposition.
	metrics := doGet(t, srv2, "/metrics")
	if s2.store.Bytes() == 0 {
		t.Fatal("restarted store reports 0 bytes over 2 records")
	}
	for _, want := range []string{"hexd_store_hits_total 2", "hexd_store_errors_total 0",
		fmt.Sprintf("hexd_store_bytes %d", s2.store.Bytes())} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestColdStoreStampedeWritesOnce fires N identical requests at a cold
// store and proves the dedup guarantee extends to the durable tier:
// exactly one simulation runs and exactly one record is written.
func TestColdStoreStampedeWritesOnce(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	s := newTestService(t, Options{Workers: 4, Store: st})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 16
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
			if resp.StatusCode != 200 {
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
	flushStore(t, s, 1)

	if got := s.Metrics.SimRuns.Value(); got != 1 {
		t.Fatalf("sim runs = %d, want 1", got)
	}
	if got := s.Metrics.StoreWrites.Value(); got != 1 {
		t.Fatalf("store writes = %d, want exactly 1 for %d identical requests", got, n)
	}
	if got := st.Len(); got != 1 {
		t.Fatalf("store holds %d records, want 1", got)
	}
	if len(bodies) != 1 {
		t.Fatalf("got %d distinct response bodies, want 1", len(bodies))
	}
}

// TestCorruptStoreRecomputesAndRecovers damages the only record on disk
// between two service generations: the restart must quarantine it at
// scan time, recompute on demand, produce the identical body (the
// determinism guarantee), and re-persist it.
func TestCorruptStoreRecomputesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	const body = `{"l":15,"w":8,"seed":9}`

	s1 := newStoreService(t, dir)
	srv1 := httptest.NewServer(s1.Handler())
	first := doRun(t, srv1, body, 200)
	flushStore(t, s1, 1)
	srv1.Close()
	s1.Close()

	// Flip one bit in the middle of the record.
	corruptOneRecord(t, dir)

	st2 := openStore(t, dir, 0)
	if got := st2.Quarantined(); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	if got := st2.Len(); got != 0 {
		t.Fatalf("corrupt store recovered %d records, want 0", got)
	}
	s2 := newTestService(t, Options{Workers: 2, Store: st2})
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()

	second := doRun(t, srv2, body, 200)
	if second != first {
		t.Fatalf("recomputed body differs from pre-corruption body:\n%s\nvs\n%s", second, first)
	}
	if got := s2.Metrics.SimRuns.Value(); got != 1 {
		t.Fatalf("sim runs = %d, want 1 recompute", got)
	}
	if got := s2.Metrics.StoreHits.Value(); got != 0 {
		t.Fatalf("store hits = %d, want 0 (the record was quarantined)", got)
	}
	flushStore(t, s2, 1)
	if got := st2.Len(); got != 1 {
		t.Fatalf("recomputed record was not re-persisted: len = %d", got)
	}
}

// corruptOneRecord flips a payload bit in the single record under dir,
// which the store keeps in a one-entry segment file.
func corruptOneRecord(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one segment file, got %v (err %v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// doPost posts body to path and returns the response body.
func doPost(t *testing.T, srv *httptest.Server, path, body string, wantCode int) string {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b := readAll(t, resp)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s status = %d, want %d (body %q)", path, resp.StatusCode, wantCode, b)
	}
	return b
}

// doGet fetches path and returns the response body.
func doGet(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return readAll(t, resp)
}
