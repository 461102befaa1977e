// Command hexsim runs a single HEX pulse simulation and prints the wave and
// its skew statistics.
//
// Usage:
//
//	hexsim -L 50 -W 20 -scenario iii -faults 2 -fault-type byzantine -seed 7
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/trace"

	hex "repro"
)

func main() {
	var (
		l         = flag.Int("L", 50, "grid length (layers 0..L)")
		w         = flag.Int("W", 20, "grid width (columns)")
		scenario  = flag.String("scenario", "i", "layer-0 skew scenario: i|ii|iii|iv (or zero|udminus|udplus|ramp)")
		faults    = flag.Int("faults", 0, "number of faulty nodes (random placement under Condition 1)")
		faultType = flag.String("fault-type", "byzantine", "fault type: byzantine|fail-silent")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		heat      = flag.Bool("heat", true, "print the wave heat map")
		layers    = flag.Bool("layers", false, "print per-layer trigger time table")
		csv       = flag.Bool("csv", false, "print the wave as CSV (layer,column,time_ns,status) and exit")
		svg       = flag.Bool("svg", false, "print the wave as an SVG heat map and exit")
		plus      = flag.Bool("plus", false, "use the HEX+ augmented topology (Section 5)")
		timeout   = flag.Duration("timeout", 0, "abort the simulation after this wall-clock duration (0 = none)")
		traceTail = flag.Int("trace-tail", 0, "keep the last N simulation events in a flight recorder; the audited window is reported after the run and dumped as JSON to stderr on failure (0 = off)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		// Deferred so the profile reflects the heap after the run, including
		// the idle arenas core.Run retains.
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if *csv && *svg {
		fail(fmt.Errorf("-csv and -svg are mutually exclusive; pass at most one output format"))
	}

	sc, err := source.Parse(*scenario)
	if err != nil {
		fail(err)
	}
	behavior, err := fault.ParseBehavior(*faultType, *faults)
	if err != nil {
		fail(err)
	}
	g, err := hex.NewGrid(*l, *w)
	if *plus {
		g, err = hex.NewGridPlus(*l, *w)
	}
	if err != nil {
		fail(err)
	}
	// The run is the one POST /v1/run serves for the same grid, scenario,
	// faults, fault type and seed.
	p, err := experiment.NewPulse(g, hex.DefaultParams(), sc, *faults, behavior, *seed)
	if err != nil {
		fail(err)
	}
	if *faults > 0 {
		fmt.Printf("faulty nodes (%s): %s\n", behavior, render.Mark(g, p.Plan.FaultyNodes()))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var tracer hex.Tracer
	var fr *obs.FlightRecorder
	if *traceTail > 0 {
		fr = obs.NewFlightRecorder(*traceTail)
		tracer = fr
	}
	res, wave, err := p.Run(ctx, tracer, false)
	if fr != nil {
		// Audit the captured window against the run's own topology and
		// fault plan; the raw events are emitted only when the run failed
		// (cancellation, infeasible config) or the audit found a violation.
		dump := obs.NewFlightDump(fr, &trace.Auditor{G: p.Graph, Plan: p.Plan, Params: p.Params}, err != nil)
		fmt.Fprintf(os.Stderr, "hexsim: flight recorder: captured=%d dropped=%d complete=%t audit_ok=%t\n",
			dump.Captured, dump.Dropped, dump.Complete, dump.AuditOK)
		if dump.AuditError != "" {
			fmt.Fprintf(os.Stderr, "hexsim: flight audit: %s\n", dump.AuditError)
		}
		if len(dump.Events) > 0 {
			json.NewEncoder(os.Stderr).Encode(dump)
		}
	}
	if err != nil {
		fail(err)
	}
	if *csv {
		fmt.Print(render.WaveCSV(wave, g))
		return
	}
	if *svg {
		fmt.Print(render.WaveSVG(wave, g, 10))
		return
	}
	if *heat {
		fmt.Println(render.WaveHeat(wave, 0))
	}
	if *layers {
		fmt.Println(render.WaveLayerSeries(wave, "per-layer trigger times"))
	}
	fmt.Printf("grid %dx%d, scenario (%s), seed %d\n", *l, *w, sc.Name(), *seed)
	intra, inter := wave.Summaries()
	printSummary("intra-layer skew [ns]", intra)
	printSummary("inter-layer skew [ns]", inter)

	delta0 := analysis.SkewPotential(wave, g, 0, hex.PaperBounds.Min)
	bound := hex.Theorem1Bound(*l, *w, hex.PaperBounds, delta0)
	fmt.Printf("layer-0 skew potential Δ0 = %v; Theorem 1 bound on σ = %v\n", delta0, bound)
	fmt.Printf("events executed: %d\n", res.Events)
}

func printSummary(label string, s stats.Summary) {
	fmt.Printf("%-24s min=%.3f q5=%.3f avg=%.3f q95=%.3f max=%.3f (n=%d)\n",
		label, s.Min, s.Q5, s.Avg, s.Q95, s.Max, s.N)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hexsim:", err)
	os.Exit(1)
}
