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
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is hexsim with its arguments and output streams as parameters; it
// returns the process exit status: 0 on success, 1 when the run or an
// output file fails, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("hexsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		l         = fs.Int("L", 50, "grid length (layers 0..L)")
		w         = fs.Int("W", 20, "grid width (columns)")
		scenario  = fs.String("scenario", "i", "layer-0 skew scenario: i|ii|iii|iv (or zero|udminus|udplus|ramp)")
		faults    = fs.Int("faults", 0, "number of faulty nodes (random placement under Condition 1)")
		faultType = fs.String("fault-type", "byzantine", "fault type: byzantine|fail-silent")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		heat      = fs.Bool("heat", true, "print the wave heat map")
		layers    = fs.Bool("layers", false, "print per-layer trigger time table")
		csv       = fs.Bool("csv", false, "print the wave as CSV (layer,column,time_ns,status) and exit")
		svg       = fs.Bool("svg", false, "print the wave as an SVG heat map and exit")
		plus      = fs.Bool("plus", false, "use the HEX+ augmented topology (Section 5)")
		timeout   = fs.Duration("timeout", 0, "abort the simulation after this wall-clock duration (0 = none)")
		traceTail = fs.Int("trace-tail", 0, "keep the last N simulation events in a flight recorder; the audited window is reported after the run and dumped as JSON to stderr on failure (0 = off)")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hexsim:", err)
		return 1
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		// Deferred so the profile reflects the heap after the run, including
		// the idle arenas core.Run retains.
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				code = fail(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fail(err)
			}
		}()
	}

	if *csv && *svg {
		return fail(fmt.Errorf("-csv and -svg are mutually exclusive; pass at most one output format"))
	}

	sc, err := source.Parse(*scenario)
	if err != nil {
		return fail(err)
	}
	behavior, err := fault.ParseBehavior(*faultType, *faults)
	if err != nil {
		return fail(err)
	}
	g, err := hex.NewGrid(*l, *w)
	if *plus {
		g, err = hex.NewGridPlus(*l, *w)
	}
	if err != nil {
		return fail(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// The run is the one POST /v1/run serves for the same grid, scenario,
	// faults, fault type and seed.
	p, err := experiment.NewPulse(ctx, g, hex.DefaultParams(), sc, *faults, behavior, *seed)
	if err != nil {
		return fail(err)
	}
	if *faults > 0 {
		fmt.Fprintf(stdout, "faulty nodes (%s): %s\n", behavior, render.Mark(g, p.Plan.FaultyNodes()))
	}
	var tracer hex.Tracer
	var fr *obs.FlightRecorder
	if *traceTail > 0 {
		fr = obs.NewFlightRecorder(*traceTail)
		tracer = fr
	}
	res, wave, err := p.Run(ctx, tracer, true)
	if fr != nil {
		// Audit the captured window against the run's own topology and
		// fault plan; the raw events are emitted only when the run failed
		// (cancellation, infeasible config) or the audit found a violation.
		dump := obs.NewFlightDump(fr, &trace.Auditor{G: p.Graph, Plan: p.Plan, Params: p.Params}, err != nil)
		fmt.Fprintf(stderr, "hexsim: flight recorder: captured=%d dropped=%d complete=%t audit_ok=%t\n",
			dump.Captured, dump.Dropped, dump.Complete, dump.AuditOK)
		if dump.AuditError != "" {
			fmt.Fprintf(stderr, "hexsim: flight audit: %s\n", dump.AuditError)
		}
		if len(dump.Events) > 0 {
			json.NewEncoder(stderr).Encode(dump)
		}
	}
	if err != nil {
		return fail(err)
	}
	if *csv {
		fmt.Fprint(stdout, render.WaveCSV(wave, g))
		return 0
	}
	if *svg {
		fmt.Fprint(stdout, render.WaveSVG(wave, g, 10))
		return 0
	}
	if *heat {
		fmt.Fprintln(stdout, render.WaveHeat(wave, 0))
	}
	if *layers {
		fmt.Fprintln(stdout, render.WaveLayerSeries(wave, "per-layer trigger times"))
	}
	fmt.Fprintf(stdout, "grid %dx%d, scenario (%s), seed %d\n", *l, *w, sc.Name(), *seed)
	intra, inter := wave.Summaries()
	printSummary(stdout, "intra-layer skew [ns]", intra)
	printSummary(stdout, "inter-layer skew [ns]", inter)

	delta0 := analysis.SkewPotential(wave, g, 0, hex.PaperBounds.Min)
	bound := hex.Theorem1Bound(*l, *w, hex.PaperBounds, delta0)
	fmt.Fprintf(stdout, "layer-0 skew potential Δ0 = %v; Theorem 1 bound on σ = %v\n", delta0, bound)
	fmt.Fprintf(stdout, "events executed: %d\n", res.Events)
	return 0
}

func printSummary(w io.Writer, label string, s stats.Summary) {
	fmt.Fprintf(w, "%-24s min=%.3f q5=%.3f avg=%.3f q95=%.3f max=%.3f (n=%d)\n",
		label, s.Min, s.Q5, s.Avg, s.Q95, s.Max, s.N)
}
