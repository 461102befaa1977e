package service_test

import (
	"io"
	"log/slog"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/store"
)

// TestJobRecordOutlivesUndurableResults pins the retire barrier: a
// store-backed Batch=1 sweep finishes every unit while the service's
// write-behind commit is held, and its durable job record must survive
// until the units' results are committed, so a crash in between still
// leaves Recover a job to re-run. After the release the record goes and
// every unit's result is in the store.
func TestJobRecordOutlivesUndurableResults(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	svc, release := service.NewHeldService(t, service.Options{Store: st, Logger: quiet})
	mgr := jobs.NewManager(jobs.Options{Runner: svc, Service: svc.Options(), Store: st, Logger: quiet})
	defer mgr.Close()

	j, _, err := mgr.Submit(jobs.SweepSpec{L: 10, W: 6, Scenarios: []string{"i", "iii"}, SeedCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, j.Done)
	if _, _, done, failed := j.Counts(); done != len(j.Units) || failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", done, failed, len(j.Units))
	}
	// The manager has reached the job's retire step; the record must stay
	// for as long as the commit is held.
	waitUntil(t, func() bool { return mgr.Metrics.JobsCompleted.Load() == 1 })
	record := "job:" + j.ID
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if _, found, _ := st.Get(record); !found {
			t.Fatal("job record deleted while its units' results were not yet durable")
		}
	}

	release()
	waitUntil(t, func() bool { _, found, _ := st.Get(record); return !found })
	for _, u := range j.Units {
		if _, found, err := st.Get(u.Key); !found || err != nil {
			t.Errorf("unit %s not in the store after the job retired (err %v)", u.Key, err)
		}
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
	}
}
