package analysis

import (
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
)

// flatWave builds a wave over a small grid where node (ℓ,i) triggers at
// base + ℓ·layerStep + i·colStep, for closed-form skew checks.
func flatWave(h *grid.Hex, base, layerStep, colStep sim.Time) *Wave {
	w := NewWave(h.Graph)
	for n := 0; n < h.NumNodes(); n++ {
		l, c := h.Coord(n)
		w.T[n] = base + sim.Time(l)*layerStep + sim.Time(c)*colStep
	}
	return w
}

func TestNewWaveAllMissing(t *testing.T) {
	h := grid.MustHex(3, 4)
	w := NewWave(h.Graph)
	if w.TriggeredCount() != 0 {
		t.Error("fresh wave has triggered nodes")
	}
	if w.AllForwardersTriggered() {
		t.Error("fresh wave claims completeness")
	}
}

func TestIntraSkewsUniformColumnStep(t *testing.T) {
	h := grid.MustHex(3, 5)
	w := flatWave(h, 0, 8000, 100)
	intra := w.IntraSkews()
	// 3 forwarding layers × 5 pairs each.
	if len(intra) != 15 {
		t.Fatalf("got %d intra pairs, want 15", len(intra))
	}
	// Most pairs differ by colStep = 0.1ns; wrap pairs (col 4 → col 0)
	// differ by 4·colStep = 0.4ns.
	small, big := 0, 0
	for _, v := range intra {
		switch {
		case v == 0.1:
			small++
		case v == 0.4:
			big++
		default:
			t.Fatalf("unexpected intra skew %v", v)
		}
	}
	if small != 12 || big != 3 {
		t.Errorf("small=%d big=%d", small, big)
	}
}

func TestInterSkewsSigned(t *testing.T) {
	h := grid.MustHex(2, 4)
	w := flatWave(h, 0, 8000, 0)
	inter := w.InterSkews()
	if len(inter) != 2*4*2 {
		t.Fatalf("got %d inter pairs", len(inter))
	}
	for _, v := range inter {
		if v != 8.0 {
			t.Fatalf("inter skew %v, want 8.0", v)
		}
	}
	// Negative steps keep their sign.
	w = flatWave(h, 100000, -5000, 0)
	for _, v := range w.InterSkews() {
		if v != -5.0 {
			t.Fatalf("signed inter skew %v, want -5.0", v)
		}
	}
}

func TestSkewsSkipMissingAndExcluded(t *testing.T) {
	h := grid.MustHex(2, 4)
	w := flatWave(h, 0, 8000, 100)
	n := h.NodeID(1, 1)
	w.T[n] = Missing
	intra := w.IntraSkewsLayer(1)
	// Pairs (1,0)-(1,1) and (1,1)-(1,2) drop out: 4 − 2 = 2 remain.
	if len(intra) != 2 {
		t.Errorf("%d pairs with one missing node, want 2", len(intra))
	}
	w = flatWave(h, 0, 8000, 100)
	w.Excluded[n] = true
	if got := len(w.IntraSkewsLayer(1)); got != 2 {
		t.Errorf("%d pairs with one excluded node, want 2", got)
	}
}

func TestMaxIntraSkewLayer(t *testing.T) {
	h := grid.MustHex(2, 4)
	w := flatWave(h, 0, 0, 0)
	w.T[h.NodeID(1, 2)] = 700
	if m := w.MaxIntraSkewLayer(1); m != 700 {
		t.Errorf("MaxIntraSkewLayer = %v", m)
	}
	// All nodes of a layer missing → -1.
	for _, n := range h.Layer(2) {
		w.T[n] = Missing
	}
	if m := w.MaxIntraSkewLayer(2); m != -1 {
		t.Errorf("empty layer max = %v", m)
	}
}

func TestInterSkewRangeLayer(t *testing.T) {
	h := grid.MustHex(2, 4)
	w := flatWave(h, 0, 8000, 0)
	w.T[h.NodeID(1, 0)] = 9000 // one late node
	lo, hi, ok := w.InterSkewRangeLayer(1)
	if !ok || lo != 8000 || hi != 9000 {
		t.Errorf("range = [%v, %v] ok=%v", lo, hi, ok)
	}
}

func TestSkewPotentialDefinition(t *testing.T) {
	h := grid.MustHex(2, 6)
	b := delay.Paper
	// All equal → Δ = 0 (i = j term).
	w := flatWave(h, 1000, 0, 0)
	if d := SkewPotential(w, h, 0, b.Min); d != 0 {
		t.Errorf("uniform Δ = %v", d)
	}
	// One node later by X: Δ = X − d− (distance-1 pair dominates).
	w.T[h.NodeID(0, 2)] += 10000
	want := sim.Time(10000) - b.Min
	if d := SkewPotential(w, h, 0, b.Min); d != want {
		t.Errorf("Δ = %v, want %v", d, want)
	}
	// Ramp with slope exactly d− has Δ … = 0 except wrap effects; use
	// half-ramp within distance: slope d− over 3 columns then flat.
	w2 := NewWave(h.Graph)
	for i := 0; i < 6; i++ {
		w2.T[h.NodeID(0, i)] = sim.Time(grid.CyclicDistance(i, 0, 6)) * b.Min
	}
	if d := SkewPotential(w2, h, 0, b.Min); d != 0 {
		t.Errorf("metric ramp Δ = %v, want 0", d)
	}
}

func TestExcludeFaultyNeighborhood(t *testing.T) {
	h := grid.MustHex(6, 8)
	plan := fault.NewPlan(h.NumNodes())
	bad := h.NodeID(2, 3)
	plan.SetBehavior(bad, fault.Byzantine)
	w := flatWave(h, 0, 8000, 0)

	w0 := flatWave(h, 0, 8000, 0)
	w0.ExcludeFaultyNeighborhood(plan, 0)
	count0 := 0
	for _, e := range w0.Excluded {
		if e {
			count0++
		}
	}
	if count0 != 1 {
		t.Errorf("h=0 excluded %d nodes, want 1", count0)
	}

	w.ExcludeFaultyNeighborhood(plan, 1)
	if !w.Excluded[bad] {
		t.Error("faulty node not excluded")
	}
	for _, out := range h.OutNeighborsOf(bad) {
		if !w.Excluded[out] {
			t.Errorf("1-hop out-neighbor %d not excluded", out)
		}
	}
	count1 := 0
	for _, e := range w.Excluded {
		if e {
			count1++
		}
	}
	// Fault + its 4 out-neighbors.
	if count1 != 5 {
		t.Errorf("h=1 excluded %d nodes, want 5", count1)
	}

	// h=2 is a superset of h=1.
	w2 := flatWave(h, 0, 8000, 0)
	w2.ExcludeFaultyNeighborhood(plan, 2)
	for n := range w.Excluded {
		if w.Excluded[n] && !w2.Excluded[n] {
			t.Errorf("h=2 lost node %d excluded at h=1", n)
		}
	}
}

func TestWaveFromResult(t *testing.T) {
	h := grid.MustHex(4, 5)
	plan := fault.NewPlan(h.NumNodes())
	bad := h.NodeID(1, 1)
	plan.SetBehavior(bad, fault.FailSilent)
	res, err := core.Run(core.Config{
		Graph:    h.Graph,
		Params:   core.DefaultParams(),
		Delay:    delay.Uniform{Bounds: delay.Paper},
		Faults:   plan,
		Schedule: source.SinglePulse(make([]sim.Time, h.W)),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := WaveFromResult(h.Graph, res, plan, 0)
	if !w.Excluded[bad] {
		t.Error("faulty node not excluded in wave")
	}
	if w.Valid(bad) {
		t.Error("faulty node counted as valid")
	}
	for n := 0; n < h.NumNodes(); n++ {
		if n == bad {
			continue
		}
		if !w.Valid(n) {
			t.Errorf("node %d invalid in fault-free region", n)
		}
		if w.T[n] != res.Triggers[n][0] {
			t.Errorf("node %d wave time mismatch", n)
		}
	}
	if !w.AllForwardersTriggered() {
		t.Error("completeness check failed")
	}
}

// TestSkewTimesMatchFloatSkews: the raw-Time skew extractors walk pairs in
// the same order as the float versions, so converting their output must
// reproduce IntraSkews/InterSkews element for element. Combined with
// stats.SummarizeScaled's differential test this closes the chain that
// lets hot paths summarize integer skews without changing any record.
func TestSkewTimesMatchFloatSkews(t *testing.T) {
	h := grid.MustHex(4, 6)
	w := flatWave(h, 0, 8000, 137)
	w.T[h.NodeID(2, 3)] = Missing
	w.Excluded[h.NodeID(1, 5)] = true

	check := func(name string, ts []sim.Time, fs []float64) {
		t.Helper()
		if len(ts) != len(fs) {
			t.Fatalf("%s: %d raw skews vs %d float skews", name, len(ts), len(fs))
		}
		for i := range ts {
			if got := ts[i].Nanoseconds(); got != fs[i] {
				t.Fatalf("%s[%d]: raw %v ns vs float %v", name, i, got, fs[i])
			}
		}
	}
	check("intra", w.AppendIntraSkewTimes(nil), w.IntraSkews())
	check("inter", w.AppendInterSkewTimes(nil), w.InterSkews())
}

// TestSummariesMatchFloatSummaries pins Summaries to the float path it
// replaces: stats.Summarize over IntraSkews and InterSkews, bit for bit,
// on HEX and on HEX+ (whose nodes have more in-neighbors than the two
// lower ones the inter skews use).
func TestSummariesMatchFloatSummaries(t *testing.T) {
	// 12×12 grids give more than 128 skews per vector, which takes
	// SummarizeScaled's radix path.
	for _, h := range []*grid.Hex{grid.MustHex(12, 12), mustHexPlus(t, 12, 12)} {
		w := flatWave(h, 0, 8000, 137)
		rng := sim.NewRNG(5)
		for n := range w.T {
			w.T[n] += rng.TimeIn(0, 1000)
		}
		w.T[h.NodeID(2, 3)] = Missing
		w.Excluded[h.NodeID(1, 5)] = true
		intra, inter := w.Summaries()
		if want := stats.Summarize(w.IntraSkews()); intra != want {
			t.Errorf("intra: %+v, want %+v", intra, want)
		}
		if want := stats.Summarize(w.InterSkews()); inter != want {
			t.Errorf("inter: %+v, want %+v", inter, want)
		}
	}
}

func mustHexPlus(t *testing.T, l, w int) *grid.Hex {
	t.Helper()
	h, err := grid.NewHexPlus(l, w)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
