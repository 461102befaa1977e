package core

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
)

// nopTracer receives every callback and records nothing, so a run traced
// with it pays the event level's traced path without a recorder's cost.
type nopTracer struct{}

func (nopTracer) Send(int, int, sim.Time, sim.Time) {}
func (nopTracer) Deliver(int, int, sim.Time, bool)  {}
func (nopTracer) FlagExpire(int, int, sim.Time)     {}
func (nopTracer) Fire(int, sim.Time, bool)          {}
func (nopTracer) Sleep(int, sim.Time)               {}
func (nopTracer) Wake(int, sim.Time)                {}

// BenchmarkEventLevelPulse times the pulse of the root package's
// BenchmarkPulsePropagation (fault-free, uniform offsets over d+, seed i)
// at the event level, one engine event per source fire, message and wake,
// which production keeps for traced runs and pulse trains. The untraced
// row's per-event tracer checks are the ones the nil-tracer fast path must
// keep free; the traced row is the shape of a ?trace=1 request or an armed
// flight recording, which files and executes every delivery and wake.
func BenchmarkEventLevelPulse(b *testing.B) {
	for _, bc := range []struct {
		name  string
		L, W  int
		trace Tracer
	}{
		{"L100_W40", 100, 40, nil},
		{"L100_W40_traced", 100, 40, nopTracer{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := grid.MustHex(bc.L, bc.W)
			p := DefaultParams()
			cfg := Config{
				Graph:  h.Graph,
				Params: p,
				Delay:  delay.Uniform{Bounds: p.Bounds},
				Faults: fault.NewPlan(h.NumNodes()),
				Trace:  bc.trace,
			}
			a := NewArena()
			a.nw.eventLevel = true
			var events, executed uint64
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
				executed += a.nw.eng.Executed
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(executed)/float64(b.N), "executed/op")
		})
	}
}
