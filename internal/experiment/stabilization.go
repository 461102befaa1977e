package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/theory"
)

// StabSpec describes a family of multi-pulse self-stabilization runs
// (Section 4.4): the system starts with every node in a random state and
// forwards a sequence of pulses; the estimator reports from which pulse on
// the skews persistently stay below a chosen threshold.
type StabSpec struct {
	L, W      int
	Bounds    delay.Bounds
	Scenario  source.Scenario
	Faults    int
	FaultType fault.Behavior
	Runs      int
	// Pulses per run (the paper uses 10).
	Pulses int
	Seed   uint64
	// Timeouts are the Condition 2 parameters (T±link, T±sleep, S).
	Timeouts theory.Timeouts
	// DisableLinkTimers removes the per-link timeouts (the original HEX
	// of [33]); an ablation for the claim that link timeouts make HEX
	// "reliably stabilize within two clock pulses".
	DisableLinkTimers bool
}

// WithDefaults fills unset fields.
func (s StabSpec) WithDefaults() StabSpec {
	if s.L == 0 {
		s.L = 50
	}
	if s.W == 0 {
		s.W = 20
	}
	if s.Bounds == (delay.Bounds{}) {
		s.Bounds = delay.Paper
	}
	if s.Runs == 0 {
		s.Runs = 250
	}
	if s.Pulses == 0 {
		s.Pulses = 10
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Faults > 0 && s.FaultType == fault.Correct {
		s.FaultType = fault.Byzantine
	}
	return s
}

// StabOut is one stabilization run's raw material: the pulse assignment is
// evaluated against any number of threshold choices without re-simulating.
type StabOut struct {
	Hex  *grid.Hex
	Plan *fault.Plan
	PA   *analysis.PulseAssignment
	// Events is the simulation's executed event count and Elapsed its
	// wall time, kept here because the PulseAssignment does not retain
	// the raw core.Result. They feed hexd's throughput metrics.
	Events  uint64
	Elapsed time.Duration
}

func (s StabSpec) runSeed(idx int) uint64 {
	return sim.DeriveSeed(s.Seed, "stab", s.Scenario.Name(),
		fmt.Sprintf("f%d-%s-lt%v", s.Faults, s.FaultType, !s.DisableLinkTimers),
		fmt.Sprintf("run%d", idx))
}

// StabRunOne executes stabilization run idx.
func StabRunOne(s StabSpec, idx int) (*StabOut, error) {
	return StabRunOneCtx(context.Background(), s, idx)
}

// StabRunOneCtx is StabRunOne with cancellation: once ctx is done the
// underlying simulation stops early and the context's error is returned.
func StabRunOneCtx(ctx context.Context, s StabSpec, idx int) (*StabOut, error) {
	s = s.WithDefaults()
	h, err := grid.NewHex(s.L, s.W)
	if err != nil {
		return nil, err
	}
	return stabRunOnGrid(ctx, s, h, idx)
}

func stabRunOnGrid(ctx context.Context, s StabSpec, h *grid.Hex, idx int) (*StabOut, error) {
	seed := s.runSeed(idx)
	sched := source.NewSchedule(s.Scenario, s.W, s.Pulses, s.Bounds,
		s.Timeouts.Separation, sim.NewRNG(sim.DeriveSeed(seed, "sched")))

	plan := fault.NewPlan(h.NumNodes())
	if s.Faults > 0 {
		rngF := sim.NewRNG(sim.DeriveSeed(seed, "faults"))
		if _, err := fault.Place(h.Graph, plan, s.Faults, nil, s.FaultType, rngF); err != nil {
			return nil, err
		}
	}

	params := core.Params{
		Bounds:    s.Bounds,
		TLinkMin:  s.Timeouts.TLinkMin,
		TLinkMax:  s.Timeouts.TLinkMax,
		TSleepMin: s.Timeouts.TSleepMin,
		TSleepMax: s.Timeouts.TSleepMax,
	}
	if s.DisableLinkTimers {
		params.TLinkMin, params.TLinkMax = 0, 0
	}

	start := time.Now()
	res, err := core.Run(core.Config{
		Graph:      h.Graph,
		Params:     params,
		Delay:      delay.Uniform{Bounds: s.Bounds},
		Faults:     plan,
		Schedule:   sched,
		RandomInit: true,
		Seed:       seed,
		Context:    ctx,
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &StabOut{
		Hex:     h,
		Plan:    plan,
		PA:      analysis.AssignPulses(h.Graph, res, plan, sched, s.Bounds),
		Events:  res.Events,
		Elapsed: elapsed,
	}, nil
}

// StabRunMany executes all runs of the spec in parallel.
func StabRunMany(s StabSpec) ([]*StabOut, error) {
	return StabRunManyCtx(context.Background(), s)
}

// StabRunManyCtx is StabRunMany with cancellation: once ctx is done, no
// further runs start, in-flight simulations stop early, and the context's
// error is returned.
func StabRunManyCtx(ctx context.Context, s StabSpec) ([]*StabOut, error) {
	s = s.WithDefaults()
	// As in RunManyCtx, one immutable grid serves every run and keys the
	// arena reuse.
	h, err := grid.NewHex(s.L, s.W)
	if err != nil {
		return nil, err
	}
	outs := make([]*StabOut, s.Runs)
	errs := make([]error, s.Runs)
	parallelFor(ctx, s.Runs, func(idx int) {
		outs[idx], errs[idx] = stabRunOnGrid(ctx, s, h, idx)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// layer0SigmaBound returns the neighbor-skew bound of the layer-0 schedule,
// used as σ(f, 0) in the threshold derivation.
func layer0SigmaBound(sc source.Scenario, b delay.Bounds) sim.Time {
	switch sc {
	case source.Zero:
		return 0
	case source.UniformDMinus:
		return b.Min
	default:
		return b.Max
	}
}

// layer0Spread returns the worst-case spread tmax − tmin of the layer-0
// schedule, used in the Lemma 5 threshold (choice C = 0).
func layer0Spread(sc source.Scenario, w int, b delay.Bounds) sim.Time {
	switch sc {
	case source.Zero:
		return 0
	case source.UniformDMinus:
		return b.Min
	case source.UniformDPlus:
		return b.Max
	default: // ramp
		return sim.Time(w/2) * b.Max
	}
}

// SigmaChoice builds the layer-dependent stable-skew threshold σ(f, ℓ) for
// a threshold choice C ∈ {0, 1, 2, 3}, following Section 4.4: C = 0 uses
// the very conservative Lemma 5 bounds; C ∈ {1, 2, 3} set σ(f, ℓ) =
// (4−C)·d+.
func SigmaChoice(c int, sc source.Scenario, w, f int, b delay.Bounds) func(layer int) sim.Time {
	base := layer0SigmaBound(sc, b)
	if c == 0 {
		spread := layer0Spread(sc, w, b)
		return func(layer int) sim.Time {
			if layer == 0 {
				return base
			}
			return spread + sim.Time(layer)*b.Epsilon() + sim.Time(f)*b.Max
		}
	}
	val := sim.Time(4-c) * b.Max
	return func(layer int) sim.Time {
		if layer == 0 {
			return base
		}
		return val
	}
}

// StabStats summarizes stabilization outcomes for one threshold choice.
type StabStats struct {
	// AvgPulse is the mean 1-based stabilization pulse over the
	// stabilized runs.
	AvgPulse float64
	// StdPulse is its standard deviation.
	StdPulse float64
	// Stabilized counts runs that stabilized within the observed pulses.
	Stabilized int
	Runs       int
}

// EvaluateStabilization applies threshold choice c to a batch of runs.
// hops > 0 additionally discards the faulty nodes' outgoing h-hop
// neighborhoods before checking skews (as in the paper's final
// stabilization experiment).
func EvaluateStabilization(outs []*StabOut, s StabSpec, c, hops int) StabStats {
	s = s.WithDefaults()
	var pulses []float64
	st := StabStats{Runs: len(outs)}
	for _, out := range outs {
		pa := out.PA
		if hops > 0 {
			pa = clonePA(pa)
			pa.ExcludeFaultyNeighborhoodAll(out.Plan, hops)
		}
		sigma := SigmaChoice(c, s.Scenario, s.W, s.Faults, s.Bounds)
		th := analysis.ThresholdsFromSigma(sigma, s.Bounds)
		if k, ok := pa.StabilizationPulse(th); ok {
			st.Stabilized++
			pulses = append(pulses, float64(k+1)) // 1-based, as in the paper
		}
	}
	st.AvgPulse = stats.Mean(pulses)
	st.StdPulse = stats.Std(pulses)
	return st
}

func clonePA(pa *analysis.PulseAssignment) *analysis.PulseAssignment {
	c := &analysis.PulseAssignment{
		Waves: make([]*analysis.Wave, len(pa.Waves)),
		Clean: make([][]bool, len(pa.Clean)),
	}
	for i, w := range pa.Waves {
		c.Waves[i] = cloneWave(w)
		c.Clean[i] = append([]bool(nil), pa.Clean[i]...)
	}
	return c
}

// stabilizationFigure is the shared skeleton of Figs. 18 and 19.
func stabilizationFigure(title string, o Options, sc source.Scenario, maxFaults int, timeouts theory.Timeouts) (*FigResult, error) {
	fig := newFig(title)
	fig.Sections = append(fig.Sections, fmt.Sprintf(
		"timeouts: T-link=[%v, %v] T-sleep=[%v, %v] S=%v",
		timeouts.TLinkMin, timeouts.TLinkMax, timeouts.TSleepMin, timeouts.TSleepMax, timeouts.Separation))
	for _, ft := range []fault.Behavior{fault.Byzantine, fault.FailSilent} {
		t := &render.Table{
			Title:  fmt.Sprintf("fault type: %v", ft),
			Header: []string{"f", "C", "avg pulse", "avg+std", "stabilized", "runs"},
		}
		for f := 0; f <= maxFaults; f++ {
			spec := StabSpec{
				L: o.L, W: o.W, Runs: o.Runs, Seed: o.Seed,
				Scenario: sc, Faults: f, FaultType: ft,
				Timeouts: timeouts,
			}.WithDefaults()
			outs, err := StabRunMany(spec)
			if err != nil {
				return nil, err
			}
			for c := 0; c <= 3; c++ {
				st := EvaluateStabilization(outs, spec, c, 0)
				avg := "-"
				avgStd := "-"
				if st.Stabilized > 0 {
					avg = fmt.Sprintf("%.2f", st.AvgPulse)
					avgStd = fmt.Sprintf("%.2f", st.AvgPulse+st.StdPulse)
				}
				t.AddRow(fmt.Sprintf("%d", f), fmt.Sprintf("%d", c),
					avg, avgStd, fmt.Sprintf("%d", st.Stabilized), fmt.Sprintf("%d", st.Runs))
				if !math.IsNaN(st.AvgPulse) {
					fig.Data[fmt.Sprintf("avg_pulse_%s_f%d_C%d", ft, f, c)] = st.AvgPulse
				}
				fig.Data[fmt.Sprintf("stabilized_%s_f%d_C%d", ft, f, c)] = float64(st.Stabilized)
			}
			// With h=1 exclusion HEX stabilized after the very first
			// pulse in every run of the paper; record C=1 as the witness.
			st := EvaluateStabilization(outs, spec, 1, 1)
			fig.Data[fmt.Sprintf("stabilized_h1_%s_f%d_C1", ft, f)] = float64(st.Stabilized)
		}
		fig.Sections = append(fig.Sections, t.String())
	}
	return fig, nil
}

// CalibrateTimeouts derives Condition 2 timeouts for a scenario from a
// (possibly reduced) measurement sweep, mirroring Table 3's procedure.
func CalibrateTimeouts(o Options, sc source.Scenario, maxFaults int) (theory.Timeouts, error) {
	o = o.WithDefaults()
	var worst float64
	for f := 0; f <= maxFaults; f++ {
		outs, err := RunMany(o.spec(sc, f, fault.Byzantine))
		if err != nil {
			return theory.Timeouts{}, err
		}
		intra, inter := CollectSkews(outs, 0)
		for _, v := range intra {
			if v > worst {
				worst = v
			}
		}
		for _, v := range inter {
			if a := absF(v); a > worst {
				worst = a
			}
		}
	}
	sigma := sim.FromNanoseconds(worst) + delay.Paper.Max
	return theory.Condition2(sigma, delay.Paper, o.L, maxFaults, theory.PaperDrift), nil
}

// Fig18 reproduces Fig. 18: stabilization time statistics under scenario
// (iii) for Byzantine and fail-silent faults, f ∈ [0, 5], threshold
// choices C ∈ {0..3}. Timeouts are calibrated from a reduced sweep.
func Fig18(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	calib := o
	calib.Runs = reducedRuns(o.Runs)
	to, err := CalibrateTimeouts(calib, source.UniformDPlus, 5)
	if err != nil {
		return nil, err
	}
	return stabilizationFigure("Fig. 18: stabilization times, scenario (iii)", o, source.UniformDPlus, 5, to)
}

// Fig19 reproduces Fig. 19: the same under the ramp scenario (iv).
func Fig19(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	calib := o
	calib.Runs = reducedRuns(o.Runs)
	to, err := CalibrateTimeouts(calib, source.Ramp, 5)
	if err != nil {
		return nil, err
	}
	return stabilizationFigure("Fig. 19: stabilization times, scenario (iv)", o, source.Ramp, 5, to)
}

func reducedRuns(runs int) int {
	r := runs / 5
	if r < 5 {
		r = 5
	}
	return r
}

// AblationLinkTimeouts compares stabilization with and without the per-link
// timeouts of Algorithm 1, under persistent Byzantine faults — backing the
// paper's claim that "the link timeouts added in Algorithm 1 cause HEX to
// reliably stabilize within two clock pulses".
func AblationLinkTimeouts(o Options, faults int) (*FigResult, error) {
	o = o.WithDefaults()
	calib := o
	calib.Runs = reducedRuns(o.Runs)
	to, err := CalibrateTimeouts(calib, source.UniformDPlus, faults)
	if err != nil {
		return nil, err
	}
	fig := newFig("Ablation: link timeouts on/off (scenario (iii), Byzantine faults)")
	t := &render.Table{
		Header: []string{"link timers", "f", "C", "avg pulse", "stabilized", "runs"},
	}
	for _, disabled := range []bool{false, true} {
		spec := StabSpec{
			L: o.L, W: o.W, Runs: o.Runs, Seed: o.Seed,
			Scenario: source.UniformDPlus, Faults: faults, FaultType: fault.Byzantine,
			Timeouts: to, DisableLinkTimers: disabled,
		}.WithDefaults()
		outs, err := StabRunMany(spec)
		if err != nil {
			return nil, err
		}
		for _, c := range []int{1, 2} {
			st := EvaluateStabilization(outs, spec, c, 0)
			mode := "on"
			if disabled {
				mode = "off"
			}
			t.AddRow(mode, fmt.Sprintf("%d", faults), fmt.Sprintf("%d", c),
				fmt.Sprintf("%.2f", st.AvgPulse), fmt.Sprintf("%d", st.Stabilized), fmt.Sprintf("%d", st.Runs))
			fig.Data[fmt.Sprintf("stabilized_timers_%s_C%d", mode, c)] = float64(st.Stabilized)
		}
	}
	fig.Sections = append(fig.Sections, t.String())
	return fig, nil
}
