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
)

// Pulse is one single-pulse run, the unit of the paper's evaluation
// (Section 4): everything core.Run needs besides the per-call context,
// tracer and result shape. NewPulse builds the canonical run of a (grid,
// scenario, faults, seed) tuple that hexd serves, sweeps and caches;
// bespoke constructions (hand-placed faults, adversarial delays, other
// topologies) fill the fields themselves. Every single-pulse run is
// executed by Run, so a Pulse run twice reproduces itself event for event.
type Pulse struct {
	Graph  *grid.Graph
	Params core.Params
	// Delay assigns link delays; nil means uniform delays over
	// Params.Bounds.
	Delay   delay.Model
	Plan    *fault.Plan
	Offsets []sim.Time
	// Seed is the engine's seed (delays and timers).
	Seed uint64
}

// NewPulse builds the canonical single-pulse run on h, a pure function of
// its arguments. Its randomness comes from named streams of seed:
//
//   - "faults": faults nodes of behavior ft, placed uniformly at random
//     under Condition 1, then the Byzantine link outputs (fault.Place);
//   - "offsets": the layer-0 offsets of scenario sc over params.Bounds;
//   - the seed itself drives the engine, which derives its "draw" stream.
//
// ctx bounds the fault placement: once it is done, NewPulse returns its
// error.
func NewPulse(ctx context.Context, h *grid.Hex, params core.Params, sc source.Scenario, faults int, ft fault.Behavior, seed uint64) (*Pulse, error) {
	plan, err := placeFaults(ctx, h, faults, ft, seed)
	if err != nil {
		return nil, err
	}
	return &Pulse{
		Graph:   h.Graph,
		Params:  params,
		Plan:    plan,
		Offsets: source.Offsets(sc, h.W, params.Bounds, sim.NewRNG(sim.DeriveSeed(seed, "offsets"))),
		Seed:    seed,
	}, nil
}

// placeFaults returns h's fault plan for the canonical runs: faults nodes
// of behavior ft placed by fault.Place on the "faults" stream of seed.
func placeFaults(ctx context.Context, h *grid.Hex, faults int, ft fault.Behavior, seed uint64) (*fault.Plan, error) {
	plan := fault.NewPlan(h.NumNodes())
	if faults > 0 {
		rng := sim.NewRNG(sim.DeriveSeed(seed, "faults"))
		if _, err := fault.Place(ctx, h.Graph, plan, faults, nil, ft, rng); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// Run executes the pulse and rebuilds its wave. ctx, if non-nil, cancels
// the run; tr, if non-nil, observes every engine event. firstOnly selects
// the compact result of core.Config.FirstTriggerOnly, for callers that
// need only the wave. When the run fails, Run returns its partial result
// (event counts up to the stop point) and no wave.
func (p *Pulse) Run(ctx context.Context, tr core.Tracer, firstOnly bool) (*core.Result, *analysis.Wave, error) {
	d := p.Delay
	if d == nil {
		d = delay.Uniform{Bounds: p.Params.Bounds}
	}
	res, err := core.Run(core.Config{
		Graph:            p.Graph,
		Params:           p.Params,
		Delay:            d,
		Faults:           p.Plan,
		Schedule:         source.SinglePulse(p.Offsets),
		Seed:             p.Seed,
		Context:          ctx,
		Trace:            tr,
		FirstTriggerOnly: firstOnly,
	})
	if err != nil {
		return res, nil, err
	}
	if firstOnly {
		return res, analysis.WaveFromFirstTriggers(p.Graph, res, p.Plan), nil
	}
	return res, analysis.WaveFromResult(p.Graph, res, p.Plan, 0), nil
}
