// BenchmarkCampaign measures the campaign pipeline end to end: a sweep of
// many tiny runs through the real jobs manager (WFQ scheduling, unit
// retry, result fan-out) and a real durable store. Two arms share the
// workload — L20_W12, one seed axis, the shared grid — and differ only in
// execution mode:
//
//   - mode=unbatched is the per-unit path: every seed pays its own
//     scheduler dispatch, worker round trip, full stats record, and
//     2-fsync store commit.
//   - mode=batched-agg is the campaign fast path: 1024-seed batches on one
//     worker with a hot arena, aggregate-only HXA1 records, one group
//     commit per batch.
//
// Both arms report runs/s (the headline campaign throughput) and
// fsyncs/run (the durability amortization). Every iteration uses a fresh
// store directory and a globally advancing seed range so neither the
// result LRU nor the durable store can serve a prior iteration's work.
package hex

import (
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/store"
)

// campaignSeedBase advances across all arms and iterations so every
// simulated run is distinct work.
var campaignSeedBase uint64 = 1

func BenchmarkCampaign(b *testing.B) {
	const l, w, seedCount = 20, 12, 10000
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	arms := []struct {
		name   string
		batch  int
		output string
	}{
		{"mode=unbatched", 1, "stats"},
		{"mode=batched-agg", 1024, "agg"},
	}
	for _, arm := range arms {
		b.Run(fmt.Sprintf("L%d_W%d/%s", l, w, arm.name), func(b *testing.B) {
			var runs, fsyncs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), fmt.Sprintf("it%d", i))
				st, err := store.Open(dir, 1<<30)
				if err != nil {
					b.Fatal(err)
				}
				svc := service.New(service.Options{Store: st, Logger: quiet})
				mgr := jobs.NewManager(jobs.Options{Runner: svc, Service: svc.Options(), Logger: quiet})
				spec := jobs.SweepSpec{
					L: l, W: w,
					SeedStart: campaignSeedBase, SeedCount: seedCount,
					Batch: arm.batch, Output: arm.output,
				}
				campaignSeedBase += seedCount
				base := st.Fsyncs()
				b.StartTimer()

				j, existing, err := mgr.Submit(spec)
				if err != nil || existing {
					b.Fatalf("submit: existing=%v err=%v", existing, err)
				}
				for !j.Done() {
					time.Sleep(2 * time.Millisecond)
				}

				b.StopTimer()
				if _, _, done, failed := j.Counts(); done != seedCount || failed != 0 {
					b.Fatalf("done=%d failed=%d, want %d/0", done, failed, seedCount)
				}
				runs += seedCount
				fsyncs += st.Fsyncs() - base
				mgr.Close()
				svc.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
			b.ReportMetric(float64(fsyncs)/float64(runs), "fsyncs/run")
		})
	}
}
