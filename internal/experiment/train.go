package experiment

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/theory"
)

// Train is one multi-pulse run, the unit of the paper's self-stabilization
// evaluation (Section 4.4): everything core.Run needs to forward a layer-0
// schedule besides the per-call context and tracer. NewTrain builds the
// canonical stabilization run; other pulse sources (a pulse generation
// network, a hand-built schedule) fill the fields themselves. Every
// multi-pulse run is executed by Run, with link delays uniform over
// Params.Bounds.
type Train struct {
	Graph      *grid.Graph
	Params     core.Params
	Plan       *fault.Plan
	Schedule   *source.Schedule
	RandomInit bool   // start every correct node in an arbitrary state
	Seed       uint64 // the engine's seed (delays, timers, initial states)
}

// TrainParams returns the algorithm parameters of a pulse train over b
// with the Condition 2 timeouts to.
func TrainParams(b delay.Bounds, to theory.Timeouts) core.Params {
	return core.Params{Bounds: b, TLinkMin: to.TLinkMin, TLinkMax: to.TLinkMax,
		TSleepMin: to.TSleepMin, TSleepMax: to.TSleepMax}
}

// NewTrain builds the canonical stabilization run on h, a pure function of
// its arguments: from random initial states, pulses pulses of scenario sc
// separated by to.Separation, under the timeouts to. Its randomness comes
// from named streams of seed: "sched" draws the schedule, "faults" places
// faults nodes of behavior ft as NewPulse does, and the seed itself drives
// the engine.
func NewTrain(h *grid.Hex, b delay.Bounds, to theory.Timeouts, sc source.Scenario, pulses, faults int, ft fault.Behavior, seed uint64) (*Train, error) {
	plan, err := placeFaults(h, faults, ft, seed)
	if err != nil {
		return nil, err
	}
	sched := source.NewSchedule(sc, h.W, pulses, b, to.Separation, sim.NewRNG(sim.DeriveSeed(seed, "sched")))
	return &Train{Graph: h.Graph, Params: TrainParams(b, to), Plan: plan, Schedule: sched, RandomInit: true, Seed: seed}, nil
}

// Run executes the train and windows its trigger histories into per-pulse
// waves. ctx, if non-nil, cancels the run; tr, if non-nil, observes every
// engine event. When the run fails, Run returns its partial result and no
// assignment.
func (t *Train) Run(ctx context.Context, tr core.Tracer) (*core.Result, *analysis.PulseAssignment, error) {
	res, err := core.Run(core.Config{
		Graph:      t.Graph,
		Params:     t.Params,
		Delay:      delay.Uniform{Bounds: t.Params.Bounds},
		Faults:     t.Plan,
		Schedule:   t.Schedule,
		RandomInit: t.RandomInit,
		Seed:       t.Seed,
		Context:    ctx,
		Trace:      tr,
	})
	if err != nil {
		return res, nil, err
	}
	return res, analysis.AssignPulses(t.Graph, res, t.Plan, t.Schedule, t.Params.Bounds), nil
}
