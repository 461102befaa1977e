// Package hex is a library reproduction of "HEX: Scaling honeycombs is
// easier than scaling clock trees" (Dolev, Függer, Lenzen, Perner, Schmid;
// SPAA 2013 / JCSS 2016): a Byzantine fault-tolerant, self-stabilizing
// clock distribution scheme on a cylindric hexagonal grid.
//
// The package is a facade over the implementation packages:
//
//   - grid construction (the HEX topology of Fig. 1),
//   - the HEX pulse forwarding algorithm (Algorithm 1) executed on a
//     deterministic discrete-event simulator,
//   - layer-0 skew scenarios, delay models and fault plans,
//   - skew analysis (Definition 3), self-stabilization estimation, and the
//     paper's closed-form bounds (Theorem 1, Lemma 5, Condition 2).
//
// Quick start:
//
//	g, _ := hex.NewGrid(50, 20)
//	rep, _ := hex.RunPulse(hex.PulseConfig{Grid: g, Scenario: hex.ScenarioUniformDPlus, Seed: 7})
//	fmt.Println(rep.IntraSummary)
package hex

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/theory"
)

// Re-exported core types. Aliases expose the internal implementations as
// the public API surface.
type (
	// Time is a simulated instant or duration in integer picoseconds.
	Time = sim.Time
	// Bounds is the link delay interval [d−, d+].
	Bounds = delay.Bounds
	// Params are the HEX algorithm parameters (timeouts, guard).
	Params = core.Params
	// Scenario selects the layer-0 skew pattern of Section 4.2.
	Scenario = source.Scenario
	// Grid is the cylindric hexagonal grid of Fig. 1.
	Grid = grid.Hex
	// Graph is the generic layered communication graph HEX runs on.
	Graph = grid.Graph
	// FaultPlan assigns Byzantine/fail-silent behaviors to nodes and links.
	FaultPlan = fault.Plan
	// Wave is a triggering-time matrix of one pulse with skew accessors.
	Wave = analysis.Wave
	// Result is a raw simulation outcome (trigger histories).
	Result = core.Result
	// Summary is the {min, q5, avg, q95, max} statistic set of the paper.
	Summary = stats.Summary
	// Timeouts are Condition 2's self-stabilization parameters.
	Timeouts = theory.Timeouts
	// Drift is the clock drift bound ϑ as a rational.
	Drift = theory.Drift
	// DelayModel assigns per-message link delays.
	DelayModel = delay.Model
	// Schedule is a multi-pulse layer-0 firing plan.
	Schedule = source.Schedule
	// RNG is the deterministic random generator used throughout.
	RNG = sim.RNG
	// Tracer observes the simulation's internal events (sends, deliveries,
	// flag expiries, fires, sleep/wake); see obs.FlightRecorder and
	// trace.Recorder for ready-made implementations.
	Tracer = core.Tracer
)

// Layer-0 skew scenarios (Table 1's (i)–(iv)).
const (
	ScenarioZero          = source.Zero
	ScenarioUniformDMinus = source.UniformDMinus
	ScenarioUniformDPlus  = source.UniformDPlus
	ScenarioRamp          = source.Ramp
)

// Failure modes.
const (
	Correct    = fault.Correct
	FailSilent = fault.FailSilent
	Byzantine  = fault.Byzantine
)

// Convenient time units.
const (
	Picosecond = sim.Picosecond
	Nanosecond = sim.Nanosecond
)

// PaperBounds is the delay interval used throughout the paper's evaluation:
// [7.161, 8.197] ns, ε = 1.036 ns.
var PaperBounds = delay.Paper

// errNilGrid is returned by the Run functions when the config lacks a grid.
var errNilGrid = errors.New("hex: Config.Grid is required; construct one with NewGrid")

// PaperDrift is the ϑ = 1.05 drift bound of the paper's experiments.
var PaperDrift = theory.PaperDrift

// NewGrid constructs a HEX grid with layers 0..L and W columns.
func NewGrid(L, W int) (*Grid, error) { return grid.NewHex(L, W) }

// DefaultParams returns algorithm parameters suitable for single-pulse
// experiments with the paper's delay interval.
func DefaultParams() Params { return core.DefaultParams() }

// NewFaultPlan returns an all-correct fault plan for g.
func NewFaultPlan(g *Grid) *FaultPlan { return fault.NewPlan(g.NumNodes()) }

// PlaceRandomFaults marks f uniformly random nodes of g with the given
// behavior such that Condition 1 (fault separation) holds, randomizing
// Byzantine per-link outputs. It returns the chosen node ids.
func PlaceRandomFaults(g *Grid, plan *FaultPlan, f int, behavior fault.Behavior, rng *RNG) ([]int, error) {
	return fault.Place(g.Graph, plan, f, nil, behavior, rng)
}

// NewRNG returns a deterministic random generator.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// PulseConfig configures a single-pulse simulation.
type PulseConfig struct {
	// Grid is required.
	Grid *Grid
	// Scenario selects the layer-0 skews (default ScenarioZero); Offsets,
	// if non-nil, overrides it with explicit layer-0 triggering times.
	Scenario Scenario
	Offsets  []Time
	// Params defaults to DefaultParams over Bounds.
	Params Params
	// Bounds is the delay interval of the default delays and layer-0
	// offsets. Unset, it is Params.Bounds, or PaperBounds when Params is
	// unset too; set together with Params, it must equal Params.Bounds.
	Bounds Bounds
	// Delay overrides the uniform-random delay model.
	Delay DelayModel
	// Faults defaults to fault-free.
	Faults *FaultPlan
	// Seed drives all randomness.
	Seed uint64
	// Context, if non-nil, cancels the simulation: once it is done the
	// engine stops early and RunPulse returns the context's error.
	Context context.Context
	// Trace, if non-nil, observes every internal event of the run. The
	// callbacks run synchronously inside the event loop; a nil Trace
	// leaves the hot path untouched.
	Trace Tracer
}

// PulseReport is the outcome of RunPulse.
type PulseReport struct {
	Wave   *Wave
	Result *Result
	// IntraSummary/InterSummary summarize the neighbor skews (ns) of this
	// pulse per Definition 3 and Section 4.1.
	IntraSummary Summary
	InterSummary Summary
}

// RunPulse propagates one pulse through the grid and reports its skews.
// It runs the single-pulse recipe hexd serves, with the config's
// overrides: a config that sets only Grid, Scenario and Seed is the
// fault-free run POST /v1/run serves for that grid, scenario and seed.
func RunPulse(cfg PulseConfig) (*PulseReport, error) {
	if cfg.Grid == nil {
		return nil, errNilGrid
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
		if cfg.Bounds != (Bounds{}) {
			cfg.Params.Bounds = cfg.Bounds
		}
	}
	if cfg.Bounds != (Bounds{}) && cfg.Bounds != cfg.Params.Bounds {
		return nil, fmt.Errorf("hex: PulseConfig.Bounds %v differs from Params.Bounds %v", cfg.Bounds, cfg.Params.Bounds)
	}
	p, err := experiment.NewPulse(cfg.Grid, cfg.Params, cfg.Scenario, 0, Correct, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p.Delay = cfg.Delay
	if cfg.Faults != nil {
		p.Plan = cfg.Faults
	}
	if cfg.Offsets != nil {
		p.Offsets = cfg.Offsets
	}
	res, wave, err := p.Run(cfg.Context, cfg.Trace, false)
	if err != nil {
		return nil, err
	}
	intra, inter := wave.Summaries()
	return &PulseReport{
		Wave:         wave,
		Result:       res,
		IntraSummary: intra,
		InterSummary: inter,
	}, nil
}

// StabilizationConfig configures a multi-pulse run from arbitrary initial
// states.
type StabilizationConfig struct {
	Grid *Grid
	// Scenario selects the per-pulse layer-0 skews.
	Scenario Scenario
	// Pulses is the number of pulses to generate (default 10).
	Pulses int
	// Timeouts are the Condition 2 parameters; derive them with
	// Condition2. Required.
	Timeouts Timeouts
	// Bounds defaults to PaperBounds.
	Bounds Bounds
	// Faults defaults to fault-free.
	Faults *FaultPlan
	Seed   uint64
	// Context, if non-nil, cancels the simulation: once it is done the
	// engine stops early and RunStabilization returns the context's error.
	Context context.Context
}

// StabilizationReport is the outcome of RunStabilization.
type StabilizationReport struct {
	Result *Result
	// Assignment windows the trigger histories into per-pulse waves.
	Assignment *analysis.PulseAssignment
	// StabilizedAt is the 1-based pulse from which all observed pulses
	// satisfied the σ(f,ℓ) = 2d+ threshold; 0 if never.
	StabilizedAt int
}

// RunStabilization starts every node in an arbitrary state and forwards a
// pulse train, reporting when the grid's skews settle.
func RunStabilization(cfg StabilizationConfig) (*StabilizationReport, error) {
	if cfg.Grid == nil {
		return nil, errNilGrid
	}
	if cfg.Timeouts == (Timeouts{}) {
		return nil, errors.New("hex: StabilizationConfig.Timeouts is required; derive it with Condition2")
	}
	if cfg.Bounds == (Bounds{}) {
		cfg.Bounds = PaperBounds
	}
	if cfg.Pulses == 0 {
		cfg.Pulses = 10
	}
	// The canonical train of cfg.Seed, over the caller's fault plan if any.
	t, err := experiment.NewTrain(cfg.Grid, cfg.Bounds, cfg.Timeouts, cfg.Scenario, cfg.Pulses, 0, Correct, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		t.Plan = cfg.Faults
	}
	res, pa, err := t.Run(cfg.Context, nil)
	if err != nil {
		return nil, err
	}
	th := analysis.ThresholdsFromSigma(analysis.ConstantSigma(2*cfg.Bounds.Max), cfg.Bounds)
	rep := &StabilizationReport{Result: res, Assignment: pa}
	if k, ok := pa.StabilizationPulse(th); ok {
		rep.StabilizedAt = k + 1
	}
	return rep, nil
}

// Theorem1Bound returns the worst-case intra-layer skew bound of Theorem 1
// for layer l of a width-w grid with layer-0 skew potential delta0.
func Theorem1Bound(l, w int, b Bounds, delta0 Time) Time {
	return theory.Theorem1IntraBound(l, w, b, delta0)
}

// Lemma5Bound returns the coarse pulse skew bound of Lemma 5.
func Lemma5Bound(spread Time, L, f int, b Bounds) Time {
	return theory.Lemma5PulseSkewBound(spread, L, f, b)
}

// Condition2 computes the self-stabilization timeouts of Condition 2 for a
// stable skew σ, grid length L, f faults, and drift ϑ.
func Condition2(sigma Time, b Bounds, L, f int, theta Drift) Timeouts {
	return theory.Condition2(sigma, b, L, f, theta)
}

// RunPulseTrain forwards an explicit multi-pulse layer-0 schedule (for
// example one produced by a pulse generation network) through the grid,
// with the algorithm parameters taken from Condition 2 timeouts.
func RunPulseTrain(g *Grid, plan *FaultPlan, sched *Schedule, to Timeouts, seed uint64) (*Result, error) {
	if g == nil {
		return nil, errNilGrid
	}
	if plan == nil {
		plan = fault.NewPlan(g.NumNodes())
	}
	t := experiment.Train{Graph: g.Graph, Params: experiment.TrainParams(PaperBounds, to), Plan: plan, Schedule: sched, Seed: seed}
	res, _, err := t.Run(context.Background(), nil)
	return res, err
}

// NewGridPlus constructs the augmented HEX+ topology of Section 5: every
// node receives from two additional lower in-neighbors, which removes the
// fault-induced skew growth of the plain grid.
func NewGridPlus(L, W int) (*Grid, error) { return grid.NewHexPlus(L, W) }
