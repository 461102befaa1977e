package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
)

// BrokenWires backs the robustness claim of the introduction that HEX "can
// handle a larger number of more benign failures like broken wires": it
// breaks f randomly chosen individual links (stuck-at-0 wires between
// otherwise correct nodes) and sweeps f far beyond the node-fault budget,
// reporting skews and completeness. A broken wire costs a node one input;
// the guard still has pairs left, so HEX tolerates many more broken wires
// than faulty nodes — until two breaks starve a node, which the static
// liveness check predicts exactly.
func BrokenWires(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	runs := reducedRuns(o.Runs)
	b := delay.Paper
	fig := newFig("Robustness: broken wires (random stuck-0 links between correct nodes)")
	t := &render.Table{
		Header: []string{"broken wires", "runs complete", "starvation predicted",
			"intra avg", "intra q95", "intra max"},
		Note: "a run is complete when every correct node fired exactly once; prediction via fault.CheckLiveness",
	}
	for _, f := range []int{0, 5, 10, 20, 40} {
		var intra []float64
		complete, predictedStarved := 0, 0
		for run := 0; run < runs; run++ {
			seed := sim.DeriveSeed(o.Seed, "brokenwires", fmt.Sprintf("f%d-run%d", f, run))
			h, err := grid.NewHex(o.L, o.W)
			if err != nil {
				return nil, err
			}
			rng := sim.NewRNG(seed)
			plan := fault.NewPlan(h.NumNodes())
			// Break f distinct directed links, chosen uniformly.
			type link struct{ from, to int }
			var all []link
			for n := 0; n < h.NumNodes(); n++ {
				for _, out := range h.Out(n) {
					all = append(all, link{n, out.To})
				}
			}
			perm := rng.Perm(len(all))
			for i := 0; i < f && i < len(all); i++ {
				plan.SetLink(all[perm[i]].from, all[perm[i]].to, fault.LinkStuck0)
			}
			live, starved := fault.CheckLiveness(h.Graph, plan)
			if !live {
				predictedStarved++
			}
			res, w, err := (&Pulse{
				Graph:   h.Graph,
				Params:  core.DefaultParams(),
				Plan:    plan,
				Offsets: source.Offsets(source.UniformDPlus, o.W, b, rng),
				Seed:    seed,
			}).Run(context.Background(), nil, false)
			if err != nil {
				return nil, err
			}
			// With link timers disabled, the static fixpoint is exact:
			// a node fires if and only if the analysis says it can.
			starvedSet := map[int]bool{}
			for _, n := range starved {
				starvedSet[n] = true
			}
			for n := 0; n < h.NumNodes(); n++ {
				fired := len(res.Triggers[n]) == 1
				if starvedSet[n] == fired {
					return nil, fmt.Errorf(
						"liveness analysis wrong at node %d: predicted starved=%v, fired=%v",
						n, starvedSet[n], fired)
				}
			}
			if live {
				complete++
			}
			intra = append(intra, w.IntraSkews()...)
		}
		s := stats.Summarize(intra)
		t.AddRow(fmt.Sprintf("%d", f),
			fmt.Sprintf("%d/%d", complete, runs),
			fmt.Sprintf("%d/%d", predictedStarved, runs),
			render.Ns(s.Avg), render.Ns(s.Q95), render.Ns(s.Max))
		fig.Data[fmt.Sprintf("complete_f%d", f)] = float64(complete)
		fig.Data[fmt.Sprintf("starved_f%d", f)] = float64(predictedStarved)
		fig.Data[fmt.Sprintf("intra_max_f%d", f)] = s.Max
	}
	fig.Sections = append(fig.Sections, t.String())
	return fig, nil
}
