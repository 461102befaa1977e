package service

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/store"
)

// heldCommits holds a service's write-behind commits: each commit sends
// its entry count on entered, waits until release is closed, then sends
// the fsyncs it cost on fsyncs.
type heldCommits struct {
	entered chan int
	fsyncs  chan uint64
	release chan struct{}
	once    sync.Once
}

func (h *heldCommits) releaseAll() { h.once.Do(func() { close(h.release) }) }

// newHeldService starts a one-worker service whose writer commits through
// a heldCommits. With one worker the pool runs jobs in submission order,
// which drainWorkers relies on.
func newHeldService(t *testing.T, opts Options) (*Service, *heldCommits) {
	t.Helper()
	h := &heldCommits{
		// Buffered past any test's commit count, so a report never blocks
		// the writer.
		entered: make(chan int, 64),
		fsyncs:  make(chan uint64, 64),
		release: make(chan struct{}),
	}
	orig := commitGroup
	commitGroup = func(st *store.Store, entries []store.Entry) error {
		h.entered <- len(entries)
		<-h.release
		before := st.Fsyncs()
		err := st.PutGroup(entries)
		h.fsyncs <- st.Fsyncs() - before
		return err
	}
	opts.Workers = 1
	s := New(opts)
	commitGroup = orig // the writer has its own copy
	t.Cleanup(func() {
		h.releaseAll()
		s.Close()
	})
	return s, h
}

// drainWorkers returns once every job submitted to a one-worker service
// before it has finished, the job's persist included.
func drainWorkers(t *testing.T, s *Service) {
	t.Helper()
	done := make(chan struct{})
	if err := s.coal.SubmitDetached(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
}

// runAll runs reqs one after another through the serving pipeline.
func runAll(t *testing.T, s *Service, reqs []RunRequest) []*coalesce.Value {
	t.Helper()
	vals := make([]*coalesce.Value, len(reqs))
	for i, r := range reqs {
		v, err := runOne(s, r)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		vals[i] = v
	}
	return vals
}

// requireStored checks that st serves every request's value byte for byte.
func requireStored(t *testing.T, st *store.Store, reqs []RunRequest, vals []*coalesce.Value) {
	t.Helper()
	for i, r := range reqs {
		e, ok, err := st.Get(r.CanonicalKey())
		if err != nil || !ok {
			t.Fatalf("request %d not in the store: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(e.Body, vals[i].Body) || e.Events != vals[i].Events {
			t.Fatalf("request %d: stored record differs from the served value", i)
		}
	}
}

// TestWriterGroupsQueuedResults: results that finish while a commit is in
// progress queue up and land together in the next commit, one segment and
// two fsyncs for all of them, and each reads back under its own key.
func TestWriterGroupsQueuedResults(t *testing.T) {
	st := openStore(t, t.TempDir(), 0)
	s, h := newHeldService(t, Options{Store: st})
	const k = 8
	reqs := batchReqs(t, s.Options(), 1+k, "stats")

	vals := runAll(t, s, reqs[:1])
	if n := <-h.entered; n != 1 {
		t.Fatalf("first commit holds %d entries, want 1", n)
	}
	vals = append(vals, runAll(t, s, reqs[1:])...)
	drainWorkers(t, s)
	h.releaseAll()
	if n := <-h.entered; n != k {
		t.Fatalf("second commit holds %d entries, want all %d queued results", n, k)
	}
	<-h.fsyncs
	if d := <-h.fsyncs; d != 2 {
		t.Fatalf("group of %d cost %d fsyncs, want 2", k, d)
	}
	s.Close()
	requireStored(t, st, reqs, vals)

	var page strings.Builder
	s.Metrics.WriteText(&page)
	for _, want := range []string{
		"hexd_store_fsyncs_total 4",
		"hexd_store_quarantined_total 0",
		"hexd_store_commit_entries_count 2",
		"hexd_store_commit_entries_sum 9",
	} {
		if !strings.Contains(page.String(), want+"\n") {
			t.Errorf("metrics page lacks %q", want)
		}
	}
}

// TestWriterServesPendingResults: a result whose commit has not returned
// is served from the pending map, so even with the memory cache disabled a
// repeat request never recomputes.
func TestWriterServesPendingResults(t *testing.T) {
	st := openStore(t, t.TempDir(), 0)
	s, h := newHeldService(t, Options{CacheEntries: -1, Store: st})
	reqs := batchReqs(t, s.Options(), 1, "stats")

	first := runAll(t, s, reqs)[0]
	<-h.entered
	if _, ok, _ := st.Get(reqs[0].CanonicalKey()); ok {
		t.Fatal("result is on disk before its commit returned")
	}
	again := runAll(t, s, reqs)[0]
	if !bytes.Equal(again.Body, first.Body) {
		t.Fatal("pending result differs from the computed one")
	}
	if got := s.Metrics.SimRuns.Value(); got != 1 {
		t.Fatalf("sim runs = %d, want 1", got)
	}
	if got := s.Metrics.StoreHits.Value(); got != 1 {
		t.Fatalf("store hits = %d, want 1 (the pending result)", got)
	}
}

// TestWriterFlushesOnClose: Close is the flush barrier. After concurrent
// cold requests and Close, a store reopened over the directory serves
// every result byte for byte.
func TestWriterFlushesOnClose(t *testing.T) {
	dir := t.TempDir()
	const n = 64
	s := newTestService(t, Options{Workers: 2, QueueDepth: n, Store: openStore(t, dir, 0)})
	reqs := batchReqs(t, s.Options(), n, "stats")

	vals := make([]*coalesce.Value, n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := runOne(s, reqs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	s.Close()

	if w, r := s.Metrics.StoreWrites.Value(), s.Metrics.SimRuns.Value(); w != n || r != n {
		t.Fatalf("store writes = %d, sim runs = %d, want %d each", w, r, n)
	}
	requireStored(t, openStore(t, dir, 0), reqs, vals)
}

// TestWriterCountsFailedEntries: a failed commit counts one store error
// per entry it held, so store writes plus errors reconcile with sim runs.
func TestWriterCountsFailedEntries(t *testing.T) {
	dir := t.TempDir()
	s, h := newHeldService(t, Options{Store: openStore(t, dir, 0)})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	const n = 6
	reqs := batchReqs(t, s.Options(), n, "stats")

	// Hold the first commit so the other results fail as one group.
	runAll(t, s, reqs[:1])
	<-h.entered
	runAll(t, s, reqs[1:])
	drainWorkers(t, s)
	h.releaseAll()
	s.Close()
	if n2 := <-h.entered; n2 != n-1 {
		t.Fatalf("second commit holds %d entries, want %d", n2, n-1)
	}
	if got := s.Metrics.StoreErrors.Value(); got != n {
		t.Fatalf("store errors = %d, want %d", got, n)
	}
	if got := s.Metrics.StoreWrites.Value(); got != 0 {
		t.Fatalf("store writes = %d, want 0", got)
	}
}
