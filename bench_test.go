// Benchmarks regenerating the paper's tables and figures (one benchmark
// per experiment, at reduced run counts so the full suite stays fast) plus
// micro-benchmarks of the simulation core. Use cmd/hexpaper for full-scale
// reproductions.
package hex

import (
	"fmt"
	"testing"

	"repro/internal/experiment"
	"repro/internal/pulsegen"
	"repro/internal/sim"
)

// benchOpts returns reduced-scale options sized for benchmarking.
func benchOpts() experiment.Options {
	return experiment.Options{L: 20, W: 12, Runs: 10, Seed: 1}
}

func reportFig(b *testing.B, fig *experiment.FigResult, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := fig.Data[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// --- Table and figure reproductions (Section 4) ---

func BenchmarkTable1FaultFree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2OneByzantine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Timeouts(b *testing.B) {
	o := benchOpts()
	o.Runs = 4
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Table3(o, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5WorstCase(b *testing.B) {
	o := experiment.Options{L: 30, W: 20, Runs: 1, Seed: 1}
	var last *experiment.FigResult
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig5(o)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	reportFig(b, last, "skew_cols_8_9_max_ns", "lemma4_bound_ns")
}

func BenchmarkFig8Wave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig8(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Wave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig9(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Histograms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig10(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Histograms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig11(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12PerLayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig12(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13ByzantineWave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig13(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14FiveByzantine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig14(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15FaultSweep(b *testing.B) {
	o := benchOpts()
	o.Runs = 6
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig15(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16FaultSweep(b *testing.B) {
	o := benchOpts()
	o.Runs = 6
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig16(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17WorstByzantine(b *testing.B) {
	o := experiment.Options{Runs: 1, Seed: 1}
	var last *experiment.FigResult
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig17(o)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	reportFig(b, last, "worst_upper_skew_dplus")
}

func BenchmarkFig18Stabilization(b *testing.B) {
	o := benchOpts()
	o.Runs = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig18(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19Stabilization(b *testing.B) {
	o := benchOpts()
	o.Runs = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig19(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20FreqMult(b *testing.B) {
	o := benchOpts()
	o.Runs = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig20(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21AltTopology(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig21(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeCompare(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TreeCompare(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

func BenchmarkAblationLinkTimeouts(b *testing.B) {
	o := benchOpts()
	o.Runs = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationLinkTimeouts(o, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGuard(b *testing.B) {
	o := benchOpts()
	o.Runs = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationGuard(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEpsilon(b *testing.B) {
	o := benchOpts()
	o.Runs = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationEpsilon(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulation core micro-benchmarks ---

// BenchmarkPulsePropagation measures raw simulator throughput: one pulse
// through grids of growing size, reporting events per second. L300_W200 is
// hexbench's large-run grid, where a wave front is widest.
func BenchmarkPulsePropagation(b *testing.B) {
	for _, size := range []struct{ L, W int }{{20, 12}, {50, 20}, {100, 40}, {300, 200}} {
		b.Run(fmt.Sprintf("L%d_W%d", size.L, size.W), func(b *testing.B) {
			g, err := NewGrid(size.L, size.W)
			if err != nil {
				b.Fatal(err)
			}
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := RunPulse(PulseConfig{Grid: g, Scenario: ScenarioUniformDPlus, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				events += rep.Result.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkMultiPulseStabilization measures a full 10-pulse run from
// arbitrary initial states, the workload behind Figs. 18–19.
func BenchmarkMultiPulseStabilization(b *testing.B) {
	g, err := NewGrid(50, 20)
	if err != nil {
		b.Fatal(err)
	}
	to := Condition2(4*PaperBounds.Max, PaperBounds, g.L, 0, PaperDrift)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStabilization(StabilizationConfig{
			Grid: g, Scenario: ScenarioUniformDPlus, Timeouts: to, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEventThroughput isolates the event queue + dispatch loop.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := sim.NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.ScheduleAfter(1, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(0, tick)
	e.RunAll()
}

// BenchmarkRNG measures the generator feeding all delay draws.
func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	var sink Time
	for i := 0; i < b.N; i++ {
		sink += r.TimeIn(PaperBounds.Min, PaperBounds.Max)
	}
	_ = sink
}

// --- Extension benches ---

func BenchmarkExtensionHexPlus(b *testing.B) {
	o := benchOpts()
	o.Runs = 6
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ExtensionHexPlus(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGradientSkew(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.GradientSkew(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbeddingComparison(b *testing.B) {
	o := experiment.Options{L: 15, W: 12, Runs: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.EmbeddingComparison(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEnd(b *testing.B) {
	o := benchOpts()
	o.Runs = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiment.EndToEnd(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingOscCompare(b *testing.B) {
	o := experiment.Options{Runs: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RingOscCompare(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPulseGeneration measures the layer-0 source network substrate.
func BenchmarkPulseGeneration(b *testing.B) {
	cfg := pulsegen.Config{
		N:      20,
		Period: 300 * Nanosecond,
		Pulses: 10,
		Bounds: PaperBounds,
		Drift:  Drift{Num: 1001, Den: 1000},
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := pulsegen.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaling(b *testing.B) {
	o := experiment.Options{Runs: 10, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Scaling(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGALS(b *testing.B) {
	o := experiment.Options{L: 10, W: 8, Runs: 5, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.GALS(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrokenWires(b *testing.B) {
	o := experiment.Options{L: 12, W: 8, Runs: 5, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BrokenWires(o); err != nil {
			b.Fatal(err)
		}
	}
}
