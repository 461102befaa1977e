package experiment

import (
	"fmt"
	"math"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/theory"
)

// Options tune how expensive the reproduction drivers are. The zero value
// is replaced by the paper's settings (250 runs on the 50×20 grid).
type Options struct {
	L, W int
	Runs int
	Seed uint64
}

// WithDefaults fills unset option fields.
func (o Options) WithDefaults() Options {
	if o.L == 0 {
		o.L = 50
	}
	if o.W == 0 {
		o.W = 20
	}
	if o.Runs == 0 {
		o.Runs = 250
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) spec(sc source.Scenario, faults int, ft fault.Behavior) Spec {
	return Spec{
		L: o.L, W: o.W, Runs: o.Runs, Seed: o.Seed,
		Scenario: sc, Faults: faults, FaultType: ft,
	}.WithDefaults()
}

// skewTable builds the Table 1/Table 2 layout from per-scenario skew data.
func skewTable(title, note string, o Options, faults int) (*render.Table, error) {
	t := &render.Table{
		Title: title,
		Header: []string{"scenario", "initial layer 0 skew",
			"intra avg", "intra q95", "intra max",
			"inter min", "inter q5", "inter avg", "inter q95", "inter max"},
		Note: note,
	}
	labels := []string{"(i)", "(ii)", "(iii)", "(iv)"}
	for i, sc := range source.Scenarios {
		outs, err := RunMany(o.spec(sc, faults, fault.Byzantine))
		if err != nil {
			return nil, err
		}
		intra, inter := CollectSkews(outs, 0)
		si, se := stats.Summarize(intra), stats.Summarize(inter)
		t.AddRow(labels[i], sc.String(),
			render.Ns(si.Avg), render.Ns(si.Q95), render.Ns(si.Max),
			render.Ns(se.Min), render.Ns(se.Q5), render.Ns(se.Avg),
			render.Ns(se.Q95), render.Ns(se.Max))
	}
	return t, nil
}

// Table1 reproduces Table 1: intra- and inter-layer skews over all nodes
// and runs on the fault-free grid, per layer-0 skew scenario.
func Table1(o Options) (*render.Table, error) {
	o = o.WithDefaults()
	return skewTable(
		fmt.Sprintf("Table 1: intra-/inter-layer skews [ns], %d runs, %dx%d grid, fault-free", o.Runs, o.L, o.W),
		"Paper (250 runs, 50x20): e.g. scenario (i) intra avg/q95/max = 0.395/1.000/3.098, inter min..max = 7.164..11.030.",
		o, 0)
}

// Table2 reproduces Table 2: the same statistics with one Byzantine node
// placed uniformly at random (Condition 1 is vacuous for f = 1).
func Table2(o Options) (*render.Table, error) {
	o = o.WithDefaults()
	return skewTable(
		fmt.Sprintf("Table 2: skews [ns] with one Byzantine node, %d runs, %dx%d grid", o.Runs, o.L, o.W),
		"Paper: e.g. scenario (i) intra avg/q95/max = 0.539/1.335/10.385, inter min..max = 5.575..17.548.",
		o, 1)
}

// StableSkews measures, per scenario, the maximum skew (intra or |inter|)
// observed over f ∈ [0, maxFaults] Byzantine-fault runs, plus a slack of
// d+ — the paper's recipe for the "assumed stable skews σ" of Table 3
// (Section 4.4: "determined via the previous simulations, plus a slack of
// d+ accounting for the exponential tail").
func StableSkews(o Options, maxFaults int) (map[source.Scenario]sim.Time, error) {
	o = o.WithDefaults()
	out := make(map[source.Scenario]sim.Time)
	for _, sc := range source.Scenarios {
		sigma, err := stableSkew(o, sc, maxFaults)
		if err != nil {
			return nil, err
		}
		out[sc] = sigma
	}
	return out, nil
}

// stableSkew is StableSkews for one scenario.
func stableSkew(o Options, sc source.Scenario, maxFaults int) (sim.Time, error) {
	var worst float64
	for f := 0; f <= maxFaults; f++ {
		outs, err := RunMany(o.spec(sc, f, fault.Byzantine))
		if err != nil {
			return 0, err
		}
		intra, inter := CollectSkews(outs, 0)
		for _, v := range intra {
			worst = max(worst, v)
		}
		for _, v := range inter {
			worst = max(worst, math.Abs(v))
		}
	}
	return sim.FromNanoseconds(worst) + delay.Paper.Max, nil
}

// Table3 reproduces Table 3: the assumed stable skews σ per scenario and
// the Condition 2 timeout and pulse-separation values derived from them
// with ϑ = 1.05 and f = maxFaults.
func Table3(o Options, maxFaults int) (*render.Table, map[source.Scenario]theory.Timeouts, error) {
	o = o.WithDefaults()
	sigmas, err := StableSkews(o, maxFaults)
	if err != nil {
		return nil, nil, err
	}
	b := delay.Paper
	t := &render.Table{
		Title: fmt.Sprintf("Table 3: stable skews and Condition 2 timeouts [ns] (theta=1.05, f=%d, L=%d)", maxFaults, o.L),
		Header: []string{"scenario", "initial layer 0 skews", "sigma",
			"T-link", "T+link", "T-sleep", "T+sleep", "S"},
		Note: "Paper (scenario (i)): sigma=28.48 T-link=31.98 T+link=33.58 T-sleep=83.56 T+sleep=87.74 S=264.08.",
	}
	timeouts := make(map[source.Scenario]theory.Timeouts)
	labels := []string{"(i)", "(ii)", "(iii)", "(iv)"}
	for i, sc := range source.Scenarios {
		to := theory.Condition2(sigmas[sc], b, o.L, maxFaults, theory.PaperDrift)
		timeouts[sc] = to
		t.AddRow(labels[i], sc.String(), render.NsTime(sigmas[sc]),
			render.NsTime(to.TLinkMin), render.NsTime(to.TLinkMax),
			render.NsTime(to.TSleepMin), render.NsTime(to.TSleepMax),
			render.NsTime(to.Separation))
	}
	return t, timeouts, nil
}
