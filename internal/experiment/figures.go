package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/theory"
)

// FigResult is the outcome of a figure reproduction: rendered text sections
// plus the key quantities, so tests and EXPERIMENTS.md can check shapes
// numerically.
type FigResult struct {
	Title    string
	Sections []string
	// Data holds named scalar results (times in ns unless noted).
	Data map[string]float64
}

// Render concatenates the sections under the title.
func (f *FigResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	for _, s := range f.Sections {
		b.WriteString(s)
		if !strings.HasSuffix(s, "\n") {
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	// Deterministic key order for the data block.
	keys := make([]string, 0, len(f.Data))
	for k := range f.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-28s %.3f\n", k+":", f.Data[k])
	}
	return b.String()
}

func newFig(title string) *FigResult {
	return &FigResult{Title: title, Data: make(map[string]float64)}
}

// waveFigure runs one single-pulse simulation and renders the wave, the
// shared skeleton of Figs. 8, 9, 13 and 14. The run is NewPulse's with
// the seed of the spec's run 0 and byzantine random Byzantine faults; the
// count stays out of the spec, whose Faults would change that seed. mark,
// if non-nil, then adds hand-placed faults to the plan.
func waveFigure(title string, sp Spec, byzantine int, mark func(h *grid.Hex, p *fault.Plan)) (*FigResult, error) {
	sp = sp.WithDefaults()
	h, err := grid.NewHex(sp.L, sp.W)
	if err != nil {
		return nil, err
	}
	p, err := NewPulse(context.Background(), h, sp.params(), sp.Scenario, byzantine, fault.Byzantine, sp.runSeed(0))
	if err != nil {
		return nil, err
	}
	if mark != nil {
		mark(h, p.Plan)
	}
	_, wave, err := p.Run(context.Background(), nil, true)
	if err != nil {
		return nil, err
	}

	fig := newFig(title)
	fig.Sections = append(fig.Sections, render.WaveHeat(wave, 31))
	fig.Sections = append(fig.Sections, render.WaveLayerSeries(wave, "per-layer trigger times").String())
	if faulty := p.Plan.FaultyNodes(); len(faulty) > 0 {
		fig.Sections = append(fig.Sections, "faulty nodes: "+render.Mark(h, faulty))
	}
	intra := wave.IntraSkews()
	if len(intra) > 0 {
		maxIntra := 0.0
		for _, v := range intra {
			maxIntra = max(maxIntra, v)
		}
		fig.Data["max_intra_skew_ns"] = maxIntra
	}
	fig.Data["nodes_triggered"] = float64(wave.TriggeredCount())
	fig.Data["forwarders_complete"] = boolToFloat(wave.AllForwardersTriggered())
	return fig, nil
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Fig8 reproduces Fig. 8: a typical pulse wave with all layer-0 skews 0.
// The wave should propagate evenly, with constant inter-layer spacing.
func Fig8(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	return waveFigure("Fig. 8: pulse wave, layer-0 skews 0 (scenario i)",
		Spec{L: o.L, W: o.W, Scenario: source.Zero, Seed: o.Seed}, 0, nil)
}

// Fig9 reproduces Fig. 9: a wave under ramped layer-0 skews. The grid
// smooths the initial skews out within roughly W−2 layers (Lemma 3).
func Fig9(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	return waveFigure("Fig. 9: pulse wave, ramped layer-0 skews (scenario iv)",
		Spec{L: o.L, W: o.W, Scenario: source.Ramp, Seed: o.Seed}, 0, nil)
}

// Fig13 reproduces Fig. 13: scenario (i) with one Byzantine node at (1, 19)
// sending constant 1 to its left and right neighbors and constant 0 to both
// upper-layer neighbors. The skew increase fades with distance from the
// fault.
func Fig13(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	fig, err := waveFigure("Fig. 13: one Byzantine node at (1,19), scenario (i)",
		Spec{L: o.L, W: o.W, Scenario: source.Zero, Seed: o.Seed}, 0,
		func(h *grid.Hex, p *fault.Plan) {
			n := h.NodeID(1, h.W-1)
			p.SetBehavior(n, fault.Byzantine)
			_, col := h.Coord(n)
			p.SetLink(n, h.NodeID(1, col-1), fault.LinkStuck1) // left
			p.SetLink(n, h.NodeID(1, col+1), fault.LinkStuck1) // right
			p.SetLink(n, h.NodeID(2, col-1), fault.LinkStuck0) // upper-left
			p.SetLink(n, h.NodeID(2, col), fault.LinkStuck0)   // upper-right
		})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig14 reproduces Fig. 14: five randomly placed Byzantine nodes under the
// ramp scenario, with Condition 1 enforced.
func Fig14(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	return waveFigure("Fig. 14: five Byzantine nodes, scenario (iv)",
		Spec{L: o.L, W: o.W, Scenario: source.Ramp, Seed: o.Seed}, 5, nil)
}

// Fig5 reproduces the worst-case construction of Fig. 5: a barrier of dead
// nodes in column 16 splits the cylinder; nodes in and left of column 8 see
// minimal delays d− while columns 9–16 see maximal delays d+ and large
// layer-0 offsets, maximizing the skew between the top-layer nodes of
// columns 8 and 9. The measured skew is checked against Lemma 4's bound.
func Fig5(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	if o.W < 18 {
		return nil, fmt.Errorf("experiment: Fig5 needs W ≥ 18, got %d", o.W)
	}
	h, err := grid.NewHex(o.L, o.W)
	if err != nil {
		return nil, err
	}
	b := delay.Paper
	const fastCol, slowCol, barrier = 8, 9, 16

	// Layer-0 offsets: slow region delayed by Δ0 + d− where Δ0 is the
	// Lemma 3 skew-potential bound (the largest value sustainable in
	// steady state).
	delta0 := theory.Lemma3SkewPotential(o.W, b)
	offsets := make([]sim.Time, o.W)
	for i := slowCol; i <= barrier; i++ {
		offsets[i] = delta0 + b.Min
	}

	plan := fault.NewPlan(h.NumNodes())
	fault.MarkColumnFailSilent(h, plan, barrier)

	// Adversarial deterministic delays: fast into columns ≤ 8 and > 16,
	// slow into columns 9..16.
	adv := delay.Func(func(_, to int, _ sim.Time, _ *sim.RNG) sim.Time {
		_, col := h.Coord(to)
		if col >= slowCol && col <= barrier {
			return b.Max
		}
		return b.Min
	})

	_, wave, err := (&Pulse{Graph: h.Graph, Params: core.DefaultParams(), Delay: adv,
		Plan: plan, Offsets: offsets, Seed: o.Seed}).Run(context.Background(), nil, true)
	if err != nil {
		return nil, err
	}

	fig := newFig("Fig. 5: deterministic worst-case wave (dead barrier col 16, fast ≤8 / slow 9..16)")
	fig.Sections = append(fig.Sections, render.WaveHeat(wave, 0))

	// The adversarial skew between columns 8 and 9 peaks at a low layer
	// and then decays as the fast region drags the slow one along; report
	// the maximum over layers against Lemma 4's bound at that layer.
	var measured sim.Time
	worstLayer := 0
	for l := 1; l <= h.L; l++ {
		s := sim.AbsTime(wave.T[h.NodeID(l, slowCol)] - wave.T[h.NodeID(l, fastCol)])
		if s > measured {
			measured, worstLayer = s, l
		}
	}
	bound := theory.Lemma4IntraBound(worstLayer, 0, b, delta0)
	top := h.L
	fig.Data["skew_cols_8_9_max_ns"] = measured.Nanoseconds()
	fig.Data["skew_cols_8_9_layer"] = float64(worstLayer)
	fig.Data["skew_cols_8_9_top_ns"] =
		sim.AbsTime(wave.T[h.NodeID(top, slowCol)] - wave.T[h.NodeID(top, fastCol)]).Nanoseconds()
	fig.Data["lemma4_bound_ns"] = bound.Nanoseconds()
	fig.Data["delta0_ns"] = delta0.Nanoseconds()
	maxIntra := 0.0
	for _, v := range wave.IntraSkews() {
		maxIntra = max(maxIntra, v)
	}
	fig.Data["max_intra_skew_ns"] = maxIntra

	// Second construction: the V-shaped Case 1 of Lemma 4 — a clean split
	// into a fast half (all delays d−) and a slow half (all delays d+)
	// with zero layer-0 skews. The skew between the boundary columns
	// grows by at most ε per layer until the left-trigger clamp kicks in;
	// the measured per-layer maximum must stay within Lemma 4's bound at
	// Δ0 = 0.
	vh, err := grid.NewHex(o.L, o.W)
	if err != nil {
		return nil, err
	}
	vPlan := fault.NewPlan(vh.NumNodes())
	fault.MarkColumnFailSilent(vh, vPlan, barrier)
	vAdv := delay.Func(func(_, to int, _ sim.Time, _ *sim.RNG) sim.Time {
		_, col := vh.Coord(to)
		if col > fastCol && col <= barrier {
			return b.Max
		}
		return b.Min
	})
	_, vWave, err := (&Pulse{Graph: vh.Graph, Params: core.DefaultParams(), Delay: vAdv,
		Plan: vPlan, Offsets: make([]sim.Time, o.W), Seed: o.Seed}).Run(context.Background(), nil, true)
	if err != nil {
		return nil, err
	}
	var vMax sim.Time
	vLayer := 0
	for l := 1; l <= vh.L; l++ {
		s := sim.AbsTime(vWave.T[vh.NodeID(l, slowCol)] - vWave.T[vh.NodeID(l, fastCol)])
		if s > vMax {
			vMax, vLayer = s, l
		}
	}
	fig.Sections = append(fig.Sections, fmt.Sprintf(
		"V-shape construction (Case 1, Δ0=0): max skew cols %d/%d = %v at layer %d; Lemma 4 bound there: %v",
		fastCol, slowCol, vMax, vLayer, theory.Lemma4IntraBound(vLayer, 0, b, 0)))
	fig.Data["vshape_max_ns"] = vMax.Nanoseconds()
	fig.Data["vshape_layer"] = float64(vLayer)
	fig.Data["vshape_bound_ns"] = theory.Lemma4IntraBound(vLayer, 0, b, 0).Nanoseconds()
	return fig, nil
}

// Fig17 reproduces Fig. 17's point — a single Byzantine node under the ramp
// scenario with all delays d+ can blow the skew between its upper neighbors
// up to several d+ — by exhaustively searching fault positions and per-link
// behaviors on a small grid and reporting the worst skew found, against the
// paper's hand-constructed 5d+ and the fault-free baseline of ~d+.
func Fig17(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	L, W := 8, 16
	h, err := grid.NewHex(L, W)
	if err != nil {
		return nil, err
	}
	b := delay.Paper
	offsets := source.Offsets(source.Ramp, W, b, nil)
	run := func(plan *fault.Plan) (*analysis.Wave, error) {
		_, w, err := (&Pulse{Graph: h.Graph, Params: core.DefaultParams(), Delay: delay.Fixed{D: b.Max},
			Plan: plan, Offsets: offsets, Seed: o.Seed}).Run(context.Background(), nil, true)
		return w, err
	}

	// Fault-free baseline.
	base, err := run(fault.NewPlan(h.NumNodes()))
	if err != nil {
		return nil, err
	}
	baseMax := 0.0
	for _, v := range base.IntraSkews() {
		baseMax = max(baseMax, v)
	}

	bestSkew := sim.Time(0)
	bestNode, bestMask := -1, 0
	for layer := 0; layer < L; layer++ { // upper neighbors must exist
		for col := 0; col < W; col++ {
			n := h.NodeID(layer, col)
			outs := h.Out(n)
			for mask := 0; mask < 1<<len(outs); mask++ {
				plan := fault.NewPlan(h.NumNodes())
				plan.SetBehavior(n, fault.Byzantine)
				for i, l := range outs {
					mode := fault.LinkStuck0
					if mask&(1<<i) != 0 {
						mode = fault.LinkStuck1
					}
					plan.SetLink(n, l.To, mode)
				}
				w, err := run(plan)
				if err != nil {
					return nil, err
				}
				u1, u2 := h.NodeID(layer+1, col-1), h.NodeID(layer+1, col)
				if !w.Valid(u1) || !w.Valid(u2) {
					continue
				}
				if s := sim.AbsTime(w.T[u1] - w.T[u2]); s > bestSkew {
					bestSkew, bestNode, bestMask = s, n, mask
				}
			}
		}
	}
	fig := newFig("Fig. 17: worst single-Byzantine skew under ramp, all delays d+ (exhaustive search)")
	bl, bc := h.Coord(bestNode)
	fig.Sections = append(fig.Sections, fmt.Sprintf(
		"worst fault: node (%d,%d), link mask %04b (stuck-1 bits over out-links)\n", bl, bc, bestMask))
	fig.Data["worst_upper_skew_ns"] = bestSkew.Nanoseconds()
	fig.Data["worst_upper_skew_dplus"] = float64(bestSkew) / float64(b.Max)
	fig.Data["paper_construction_dplus"] = 5
	fig.Data["faultfree_max_intra_ns"] = baseMax
	return fig, nil
}
