package experiment

import (
	"context"
	"fmt"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/pulsegen"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/theory"
)

// EndToEnd runs the full stack the paper envisions: a Byzantine
// fault-tolerant pulse generation network (the FATAL/DARTS role,
// Srikanth–Toueg-style) produces the layer-0 pulses, which the HEX grid
// forwards upward — with Byzantine faults among both the sources and the
// forwarding nodes. It reports the source skew, the HEX neighbor skews per
// pulse, and whether every correct node forwarded every pulse exactly once.
func EndToEnd(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	b := delay.Paper
	to := theory.Condition2(4*b.Max, b, o.L, 2, theory.PaperDrift)
	drift := theory.Drift{Num: 1001, Den: 1000} // 1000 ppm oscillators
	pulses := 8

	fig := newFig("End to end: BFT pulse generation (layer 0) + HEX forwarding")
	t := &render.Table{
		Header: []string{"faulty sources", "faulty nodes", "src skew max",
			"intra avg", "intra q95", "intra max", "complete"},
		Note: "skews in ns over all pulses and runs; complete = every correct node fired once per pulse",
	}

	runs := reducedRuns(o.Runs)
	cases := []struct{ srcFaults, nodeFaults int }{{0, 0}, {2, 0}, {0, 2}, {2, 2}}
	for _, cs := range cases {
		var intra []float64
		var srcSkew sim.Time
		complete := true
		for run := 0; run < runs; run++ {
			seed := sim.DeriveSeed(o.Seed, "endtoend",
				fmt.Sprintf("s%d-n%d-run%d", cs.srcFaults, cs.nodeFaults, run))
			h, err := grid.NewHex(o.L, o.W)
			if err != nil {
				return nil, err
			}
			rng := sim.NewRNG(seed)

			// Choose faulty sources under Condition 1 (adjacent faulty
			// sources would starve their common layer-1 neighbor), then
			// generate pulses.
			var faultySources []int
			if cs.srcFaults > 0 {
				placed, err := fault.PlaceRandom(h.Graph, cs.srcFaults, h.Layer(0), rng, 0)
				if err != nil {
					return nil, err
				}
				for _, n := range placed {
					_, col := h.Coord(n)
					faultySources = append(faultySources, col)
				}
			}
			gen, err := pulsegen.Run(pulsegen.Config{
				N:              o.W,
				Faulty:         faultySources,
				AssumedFaults:  max(cs.srcFaults, 2),
				Period:         to.Separation + 4*b.Max,
				Pulses:         pulses,
				Bounds:         b,
				Drift:          drift,
				Seed:           seed,
				ByzantineEager: run%2 == 0,
			})
			if err != nil {
				return nil, err
			}
			srcSkew = max(srcSkew, gen.MaxSkew())

			// Fault plan: faulty sources plus random faulty forwarders.
			plan := fault.NewPlan(h.NumNodes())
			for _, c := range faultySources {
				plan.SetBehavior(h.NodeID(0, c), fault.FailSilent)
			}
			if cs.nodeFaults > 0 {
				var candidates []int
				for l := 1; l <= h.L; l++ {
					candidates = append(candidates, h.Layer(l)...)
				}
				if _, err := fault.Place(h.Graph, plan, cs.nodeFaults, candidates, fault.Byzantine, rng); err != nil {
					return nil, err
				}
				live, _ := fault.CheckLiveness(h.Graph, plan)
				if ok, _ := fault.Condition1(h.Graph, plan); !ok || !live {
					// Source and node faults are placed independently and
					// may jointly violate separation; skip this run (rare
					// at these densities).
					continue
				}
			}

			t := &Train{Graph: h.Graph, Params: TrainParams(b, to), Plan: plan, Schedule: gen.Schedule(), Seed: seed}
			_, pa, err := t.Run(context.Background(), nil)
			if err != nil {
				return nil, err
			}
			for k := 0; k < pulses; k++ {
				w := pa.Waves[k]
				intra = append(intra, w.IntraSkews()...)
				for n := 0; n < h.NumNodes(); n++ {
					if h.LayerOf(n) == 0 || w.Excluded[n] {
						continue
					}
					if !pa.Clean[k][n] {
						complete = false
					}
				}
			}
		}
		s := stats.Summarize(intra)
		t.AddRow(fmt.Sprintf("%d", cs.srcFaults), fmt.Sprintf("%d", cs.nodeFaults),
			render.NsTime(srcSkew),
			render.Ns(s.Avg), render.Ns(s.Q95), render.Ns(s.Max),
			fmt.Sprintf("%v", complete))
		key := fmt.Sprintf("s%d_n%d", cs.srcFaults, cs.nodeFaults)
		fig.Data["intra_max_"+key] = s.Max
		fig.Data["complete_"+key] = boolToFloat(complete)
		fig.Data["src_skew_"+key] = srcSkew.Nanoseconds()
	}
	fig.Sections = append(fig.Sections, t.String())
	return fig, nil
}
