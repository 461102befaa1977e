package hex

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/delay"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/theory"
	"repro/internal/trace"
)

// TestSoakLongPulseTrainAudited runs a long (60-pulse) train with Byzantine
// faults on a mid-size grid, records every internal event, and replays the
// whole run through the independent trace auditor plus the per-pulse
// assignment checks. This is the closest thing to a production burn-in the
// repository has; it executes roughly half a million events.
func TestSoakLongPulseTrainAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const pulses = 60
	h := grid.MustHex(20, 12)
	b := delay.Paper
	to := theory.Condition2(4*b.Max, b, h.L, 2, theory.PaperDrift)

	plan := fault.NewPlan(h.NumNodes())
	rng := sim.NewRNG(99)
	placed, err := fault.PlaceRandom(h.Graph, 2, nil, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range placed {
		plan.SetBehavior(n, fault.Byzantine)
	}
	plan.RandomizeByzantine(h.Graph, rng)

	sched := source.NewSchedule(source.UniformDPlus, h.W, pulses, b,
		to.Separation, sim.NewRNG(7))
	rec := &trace.Recorder{}
	params := experiment.TrainParams(b, to)
	train := &experiment.Train{Graph: h.Graph, Params: params, Plan: plan, Schedule: sched, Seed: 123}
	res, pa, err := train.Run(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("events: %d, trace entries: %d", res.Events, len(rec.Events))

	// Independent semantic replay of the full run.
	aud := &trace.Auditor{G: h.Graph, Plan: plan, Params: params}
	if err := aud.AuditAll(rec); err != nil {
		t.Fatal(err)
	}
	if err := aud.AuditFireCounts(rec, pulses); err != nil {
		t.Fatal(err)
	}

	// Every pulse assigned cleanly; skews bounded by the σ that sized the
	// timeouts (4d+ intra) for every single pulse.
	th := analysis.ThresholdsFromSigma(analysis.ConstantSigma(4*b.Max), b)
	for k := 0; k < pulses; k++ {
		if !pa.PulseStable(k, th) {
			// Faults may push isolated pulses past the threshold; require
			// clean assignment at minimum.
			for n := 0; n < h.NumNodes(); n++ {
				if h.LayerOf(n) == 0 || pa.Waves[k].Excluded[n] {
					continue
				}
				if !pa.Clean[k][n] {
					t.Fatalf("pulse %d: node %d not cleanly assigned", k, n)
				}
			}
		}
	}
	// No skew drift over the train: the last ten pulses are no worse than
	// pulses 10–20.
	maxIn := func(from, to int) float64 {
		worst := 0.0
		for k := from; k < to; k++ {
			for _, v := range pa.Waves[k].IntraSkews() {
				if v > worst {
					worst = v
				}
			}
		}
		return worst
	}
	early, late := maxIn(10, 20), maxIn(pulses-10, pulses)
	if late > 2*early+1 {
		t.Errorf("skew drifted over the train: early max %.3f, late max %.3f", early, late)
	}
}
