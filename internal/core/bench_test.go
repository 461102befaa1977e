package core

import (
	"fmt"
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
)

// BenchmarkEventLevelPulse times the pulse of the root package's
// BenchmarkPulsePropagation (fault-free, uniform offsets over d+, seed i)
// at the event level, one engine event per source fire, message and wake,
// which production keeps for traced runs and pulse trains. Its per-event
// tracer checks are the ones the nil-tracer fast path must keep free.
func BenchmarkEventLevelPulse(b *testing.B) {
	for _, size := range []struct{ L, W int }{{100, 40}} {
		b.Run(fmt.Sprintf("L%d_W%d", size.L, size.W), func(b *testing.B) {
			h := grid.MustHex(size.L, size.W)
			p := DefaultParams()
			cfg := Config{
				Graph:  h.Graph,
				Params: p,
				Delay:  delay.Uniform{Bounds: p.Bounds},
				Faults: fault.NewPlan(h.NumNodes()),
			}
			a := NewArena()
			a.nw.eventLevel = true
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				cfg.Schedule = source.SinglePulse(source.Offsets(source.UniformDPlus, h.W, p.Bounds,
					sim.NewRNG(sim.DeriveSeed(cfg.Seed, "offsets"))))
				res, err := a.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
