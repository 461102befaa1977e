package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/clocktree"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/freqmult"
	"repro/internal/grid"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/theory"
)

// Fig20 reproduces the frequency multiplication discussion of Fig. 20:
// given Condition 2 timeouts for scenario (iii), it measures the minimal
// pulse separation Λmin seen by any node over a multi-pulse run, derives
// the largest multiplier M for a set of oscillator periods, and reports
// the resulting amortized fast-clock frequencies and worst-case fast skews
// (HEX skew plus drift accumulation), including a measured fast skew from
// simulated tick trains.
func Fig20(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	to, err := CalibrateTimeouts(o, source.UniformDPlus, 0)
	if err != nil {
		return nil, err
	}
	spec := StabSpec{
		L: o.L, W: o.W, Runs: 1, Seed: o.Seed,
		Scenario: source.UniformDPlus, Pulses: 10, Timeouts: to,
	}.WithDefaults()
	out, err := StabRunOne(spec, 0)
	if err != nil {
		return nil, err
	}

	// Λmin: the minimal pulse separation observed at any node, and the
	// maximal neighbor skew of the settled pulses.
	lambdaMin := sim.MaxTime
	g := out.Hex.Graph
	for n := 0; n < g.NumNodes(); n++ {
		var prev sim.Time = analysis.Missing
		for k := range out.PA.Waves {
			t := out.PA.Waves[k].T[n]
			if t == analysis.Missing {
				continue
			}
			if prev != analysis.Missing && t-prev < lambdaMin {
				lambdaMin = t - prev
			}
			prev = t
		}
	}
	var hexSkew sim.Time
	for _, w := range out.PA.Waves[1:] { // skip the possibly-unsettled first pulse
		for _, v := range w.IntraSkews() {
			hexSkew = max(hexSkew, sim.FromNanoseconds(v))
		}
	}

	fig := newFig("Fig. 20: frequency multiplication window and fast-clock skew")
	fig.Sections = append(fig.Sections, fmt.Sprintf(
		"pulse separation S=%v, measured Λmin=%v, measured HEX skew=%v, drift ϑ=%.2f",
		to.Separation, lambdaMin, hexSkew, theory.PaperDrift.Float()))

	t := &render.Table{
		Header: []string{"osc period", "M", "window", "eff. freq [GHz]", "fast skew bound", "fast skew measured"},
	}
	rng := sim.NewRNG(sim.DeriveSeed(o.Seed, "freqmult"))
	for _, period := range []sim.Time{500 * sim.Picosecond, sim.Nanosecond, 2 * sim.Nanosecond} {
		m := freqmult.MaxMultiplier(lambdaMin, period, theory.PaperDrift)
		if m < 1 {
			t.AddRow(period.String(), "0", "-", "-", "-", "-")
			continue
		}
		p := freqmult.Params{NominalPeriod: period, Multiplier: m, Drift: theory.PaperDrift}
		// Measure fast skew over the settled neighbor pairs of pulse 1.
		w := out.PA.Waves[1]
		var measured sim.Time
		trains := make(map[int][]sim.Time)
		train := func(n int) []sim.Time {
			if tr, ok := trains[n]; ok {
				return tr
			}
			tr := freqmult.Ticks(w.T[n], p, rng)
			trains[n] = tr
			return tr
		}
		for l := 1; l < g.NumLayers(); l++ {
			for _, n := range g.Layer(l) {
				r, ok := g.RightNeighbor(n)
				if !ok || !w.Valid(n) || !w.Valid(r) {
					continue
				}
				measured = max(measured, freqmult.MeasureSkew(train(n), train(r)))
			}
		}
		bound := freqmult.SkewBound(hexSkew, p)
		t.AddRow(period.String(), fmt.Sprintf("%d", m), p.WindowRequired().String(),
			fmt.Sprintf("%.3f", freqmult.EffectiveFrequencyGHz(p, to.Separation)),
			bound.String(), measured.String())
		fig.Data[fmt.Sprintf("M_period_%dps", period.Picoseconds())] = float64(m)
		fig.Data[fmt.Sprintf("fastskew_bound_ns_%dps", period.Picoseconds())] = bound.Nanoseconds()
		fig.Data[fmt.Sprintf("fastskew_meas_ns_%dps", period.Picoseconds())] = measured.Nanoseconds()
	}
	fig.Sections = append(fig.Sections, t.String())
	fig.Data["lambda_min_ns"] = lambdaMin.Nanoseconds()
	fig.Data["hex_skew_ns"] = hexSkew.Nanoseconds()
	return fig, nil
}

// Fig21 exercises the alternative doubling-layer topology of Fig. 21: a
// circular arrangement whose layer widths double on a geometric schedule.
// A pulse wave is propagated and per-layer skews reported; doubling layers
// should not behave worse than normal ones.
func Fig21(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	layers := 12
	sched := grid.GeometricDoubling(layers)
	d, err := grid.NewDoubling(6, sched)
	if err != nil {
		return nil, err
	}
	b := delay.Paper
	runs := reducedRuns(o.Runs)

	perLayerMax := make([]float64, layers+1)
	var worst float64
	for run := 0; run < runs; run++ {
		p := &Pulse{
			Graph:   d.Graph,
			Params:  core.DefaultParams(),
			Plan:    fault.NewPlan(d.NumNodes()),
			Offsets: make([]sim.Time, d.Widths[0]),
			Seed:    sim.DeriveSeed(o.Seed, "fig21", fmt.Sprintf("run%d", run)),
		}
		_, w, err := p.Run(context.Background(), nil, true)
		if err != nil {
			return nil, err
		}
		for l := 1; l <= layers; l++ {
			if m := w.MaxIntraSkewLayer(l); m >= 0 {
				perLayerMax[l] = max(perLayerMax[l], m.Nanoseconds())
				worst = max(worst, m.Nanoseconds())
			}
		}
	}

	fig := newFig("Fig. 21: doubling-layer topology, per-layer max intra skew")
	t := &render.Table{Header: []string{"layer", "width", "doubling", "max intra skew [ns]"}}
	var dblWorst, normWorst float64
	for l := 1; l <= layers; l++ {
		dbl := sched[l-1]
		t.AddRow(fmt.Sprintf("%d", l), fmt.Sprintf("%d", d.Widths[l]),
			fmt.Sprintf("%v", dbl), render.Ns(perLayerMax[l]))
		if dbl {
			dblWorst = max(dblWorst, perLayerMax[l])
		} else {
			normWorst = max(normWorst, perLayerMax[l])
		}
	}
	fig.Sections = append(fig.Sections, t.String())
	fig.Data["max_intra_skew_ns"] = worst
	fig.Data["max_intra_doubling_ns"] = dblWorst
	fig.Data["max_intra_normal_ns"] = normWorst
	fig.Data["dplus_ns"] = b.Max.Nanoseconds()
	return fig, nil
}

// TreeCompare backs the title claim: it compares HEX grids against balanced
// H-trees of equal size on (a) worst neighbor wire length, (b) measured
// neighbor skews under comparable per-unit delay quality, and (c) the blast
// radius of a single fault.
func TreeCompare(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	b := delay.Paper
	runs := reducedRuns(o.Runs)
	fig := newFig("HEX vs. clock tree: skew and robustness vs. size")
	t := &render.Table{
		Header: []string{"n", "tree wire(max nbr)", "hex wire(nbr)",
			"tree skew avg", "tree skew max", "hex skew avg", "hex skew max",
			"tree dead avg", "tree dead max", "hex dead"},
		Note: "wire in leaf-pitch units; skews in ns; dead = functional units losing their clock after one random fault",
	}
	// Per-unit tree delay quality matched to a HEX link spanning one unit:
	// mean delay (d−+d+)/2 per unit, relative jitter ε/(d−+d+).
	unit := (b.Min + b.Max) / 2
	jitter := float64(b.Epsilon()) / float64(b.Min+b.Max)
	treeDelays := clocktree.Delays{
		UnitWire:   unit,
		WireJitter: jitter,
		BufMin:     161 * sim.Picosecond,
		BufMax:     197 * sim.Picosecond,
	}
	for _, depth := range []int{3, 4, 5} {
		tree := clocktree.MustNew(depth)
		n := tree.NumLeaves()
		side := tree.Side

		// Tree: fault-free skews and single-fault blast radius.
		var treeSkews []float64
		var deadCounts []float64
		rng := sim.NewRNG(sim.DeriveSeed(o.Seed, "tree", fmt.Sprintf("d%d", depth)))
		for r := 0; r < runs; r++ {
			run := tree.Simulate(treeDelays, nil, rng)
			treeSkews = append(treeSkews, run.NeighborSkews()...)
			buf := tree.RandomBuffer(rng)
			frun := tree.Simulate(treeDelays, []clocktree.NodeRef{buf}, rng)
			deadCounts = append(deadCounts, float64(frun.DeadLeaves()))
		}

		// HEX of the same size: W = side, L = side − 1 → n nodes.
		spec := Spec{L: side - 1, W: side, Runs: runs, Seed: o.Seed,
			Scenario: source.Zero}.WithDefaults()
		outs, err := RunMany(spec)
		if err != nil {
			return nil, err
		}
		// Inter-layer skews carry a known bias of ≈ one link delay, which
		// "can be compensated by subtracting s at the application level"
		// (Section 5); compare the tree against the bias-compensated
		// neighbor skews.
		intra, inter := CollectSkews(outs, 0)
		bias := stats.Mean(inter)
		hexSkews := intra
		for _, v := range inter {
			hexSkews = append(hexSkews, math.Abs(v-bias))
		}

		ts, hs := stats.Summarize(treeSkews), stats.Summarize(hexSkews)
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", tree.WorstNeighborWireLength()), "1",
			render.Ns(ts.Avg), render.Ns(ts.Max), render.Ns(hs.Avg), render.Ns(hs.Max),
			fmt.Sprintf("%.1f", stats.Mean(deadCounts)), fmt.Sprintf("%.0f", stats.Max(deadCounts)),
			"0")
		fig.Data[fmt.Sprintf("tree_skew_max_n%d", n)] = ts.Max
		fig.Data[fmt.Sprintf("hex_skew_max_n%d", n)] = hs.Max
		fig.Data[fmt.Sprintf("tree_dead_max_n%d", n)] = stats.Max(deadCounts)
	}
	fig.Sections = append(fig.Sections, t.String())
	return fig, nil
}

// AblationGuard compares Algorithm 1's adjacent-pair guard against a naive
// any-two-of-four threshold guard on the two scenarios where they actually
// differ:
//
//   - Safety: a victim whose left and right neighbors are both Byzantine
//     with constant-1 outputs (two faults, deliberately violating
//     Condition 1). The naive guard accepts the non-adjacent (left, right)
//     pair and emits a false pulse at time 0; Algorithm 1's guard, whose
//     every pair contains a lower-layer neighbor, stays safe.
//   - Liveness: two adjacent crashed nodes below a common upper neighbor.
//     The adjacent-pair guard starves that neighbor (Section 3.2); the
//     naive guard keeps it alive via its intra-layer neighbors — the
//     trade-off Algorithm 1 resolves in favor of safety.
func AblationGuard(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	h, err := grid.NewHex(o.L, o.W)
	if err != nil {
		return nil, err
	}
	victim := h.NodeID(o.L/2, o.W/2)

	run := func(guard core.GuardMode, plan *fault.Plan, offsets []sim.Time, seed uint64) (*analysis.Wave, error) {
		params := core.DefaultParams()
		params.Guard = guard
		_, w, err := (&Pulse{Graph: h.Graph, Params: params, Plan: plan,
			Offsets: offsets, Seed: seed}).Run(context.Background(), nil, true)
		return w, err
	}

	// Safety scenario: Byzantine left and right neighbors of the victim,
	// all outputs stuck at 1; delay the real pulse to make false pulses
	// unambiguous.
	safetyPlan := fault.NewPlan(h.NumNodes())
	left, _ := h.LeftNeighbor(victim)
	right, _ := h.RightNeighbor(victim)
	for _, bad := range []int{left, right} {
		safetyPlan.SetBehavior(bad, fault.Byzantine)
		for _, out := range h.Out(bad) {
			safetyPlan.SetLink(bad, out.To, fault.LinkStuck1)
		}
	}
	lateOffsets := make([]sim.Time, o.W)
	for i := range lateOffsets {
		lateOffsets[i] = 500 * sim.Nanosecond
	}

	// Liveness scenario: the victim's two lower neighbors crash.
	livenessPlan := fault.NewPlan(h.NumNodes())
	ll, _ := h.LowerLeftNeighbor(victim)
	lr, _ := h.LowerRightNeighbor(victim)
	livenessPlan.SetBehavior(ll, fault.FailSilent)
	livenessPlan.SetBehavior(lr, fault.FailSilent)

	fig := newFig("Ablation: adjacent-pair guard vs. any-two guard")
	t := &render.Table{
		Header: []string{"guard", "false pulse (2 stuck-1 nbrs)", "victim alive (2 crashed lowers)"},
		Note:   "false pulse = victim fires before the delayed real wave; Algorithm 1 trades the liveness case for safety",
	}
	for _, g := range []core.GuardMode{core.GuardAdjacent, core.GuardAnyTwo} {
		sw, err := run(g, safetyPlan, lateOffsets, o.Seed)
		if err != nil {
			return nil, err
		}
		falsePulse := sw.T[victim] != analysis.Missing && sw.T[victim] < 500*sim.Nanosecond
		lw, err := run(g, livenessPlan, make([]sim.Time, o.W), o.Seed)
		if err != nil {
			return nil, err
		}
		alive := lw.T[victim] != analysis.Missing
		t.AddRow(g.String(), fmt.Sprintf("%v", falsePulse), fmt.Sprintf("%v", alive))
		fig.Data["false_pulse_"+g.String()] = boolToFloat(falsePulse)
		fig.Data["victim_alive_"+g.String()] = boolToFloat(alive)
	}
	fig.Sections = append(fig.Sections, t.String())
	return fig, nil
}

// AblationEpsilon sweeps the delay uncertainty ε at fixed d+ and compares
// the measured maximal intra-layer skew against Theorem 1's bound,
// including ratios beyond the theorem's ε ≤ d+/7 requirement.
func AblationEpsilon(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	fig := newFig("Ablation: skew vs. delay uncertainty ε (scenario (iii), fault-free)")
	t := &render.Table{
		Header: []string{"eps/d+", "d-", "d+", "intra max [ns]", "thm1 bound [ns]", "within bound"},
	}
	dplus := delay.Paper.Max
	for _, den := range []int64{14, 7, 4, 2} {
		eps := sim.Time(int64(dplus) / den)
		b := delay.Bounds{Min: dplus - eps, Max: dplus}
		spec := Spec{
			L: o.L, W: o.W, Runs: reducedRuns(o.Runs), Seed: o.Seed,
			Bounds: b, Scenario: source.UniformDPlus,
		}.WithDefaults()
		outs, err := RunMany(spec)
		if err != nil {
			return nil, err
		}
		intra, _ := CollectSkews(outs, 0)
		var worst float64
		for _, v := range intra {
			worst = max(worst, v)
		}
		// Scenario (iii) has Δ0 ≤ ε; use the general-layer bound with the
		// conservative low-layer form.
		bound := theory.Theorem1IntraBound(1, o.W, b, b.Epsilon())
		within := "yes"
		if sim.FromNanoseconds(worst) > bound {
			within = "NO"
		}
		t.AddRow(fmt.Sprintf("1/%d", den), b.Min.String(), b.Max.String(),
			render.Ns(worst), render.NsTime(bound), within)
		fig.Data[fmt.Sprintf("intra_max_eps_1_%d", den)] = worst
		fig.Data[fmt.Sprintf("bound_eps_1_%d", den)] = bound.Nanoseconds()
	}
	fig.Sections = append(fig.Sections, t.String())
	return fig, nil
}

// ExtensionHexPlus evaluates the Section 5 proposal for decreasing skews
// further: augmenting every node with two additional in-neighbors from the
// previous layer (the HEX+ topology). The paper predicts that the extra
// lower in-neighbors remove the need for intra-layer "help" next to a
// faulty lower neighbor, mitigating — "if not eliminating entirely" — the
// fault-induced skew increase. The sweep mirrors Fig. 15 on both
// topologies.
func ExtensionHexPlus(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	fig := newFig("Extension: HEX vs. HEX+ (additional lower in-neighbors), scenario (iii)")
	t := &render.Table{
		Header: []string{"topology", "f", "intra avg", "intra q95", "intra max", "inter max"},
	}
	for _, plus := range []bool{false, true} {
		name := "HEX"
		if plus {
			name = "HEX+"
		}
		for f := 0; f <= 4; f++ {
			spec := Spec{
				L: o.L, W: o.W, Runs: o.Runs, Seed: o.Seed,
				Scenario: source.UniformDPlus, Faults: f, FaultType: fault.Byzantine,
				HexPlus: plus,
			}.WithDefaults()
			outs, err := RunMany(spec)
			if err != nil {
				return nil, err
			}
			intra, inter := CollectSkews(outs, 0)
			si, se := stats.Summarize(intra), stats.Summarize(inter)
			interMax := math.Abs(se.Max)
			interMax = max(interMax, math.Abs(se.Min))
			t.AddRow(name, fmt.Sprintf("%d", f),
				render.Ns(si.Avg), render.Ns(si.Q95), render.Ns(si.Max), render.Ns(interMax))
			fig.Data[fmt.Sprintf("intra_max_%s_f%d", name, f)] = si.Max
			fig.Data[fmt.Sprintf("intra_avg_%s_f%d", name, f)] = si.Avg
		}
	}
	fig.Sections = append(fig.Sections, t.String())
	return fig, nil
}
