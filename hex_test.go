package hex

import (
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/delay"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/theory"
)

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(0, 20); err == nil {
		t.Error("invalid grid accepted")
	}
}

func TestRunPulseDefaults(t *testing.T) {
	g, _ := NewGrid(10, 8)
	rep, err := RunPulse(PulseConfig{Grid: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IntraSummary.N == 0 || rep.InterSummary.N == 0 {
		t.Error("no skews collected")
	}
	if !rep.Wave.AllForwardersTriggered() {
		t.Error("incomplete wave")
	}
}

func TestRunPulseExplicitOffsets(t *testing.T) {
	g, _ := NewGrid(5, 6)
	off := make([]Time, 6)
	off[3] = 20 * Nanosecond
	rep, err := RunPulse(PulseConfig{Grid: g, Offsets: off, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wave.T[g.NodeID(0, 3)] != 20*Nanosecond {
		t.Error("explicit offsets ignored")
	}
}

// TestRunPulseParamsBounds pins the Bounds rule: delays and default
// offsets follow Params.Bounds when Bounds is unset, and a Bounds that
// contradicts Params.Bounds is an error rather than silently winning for
// the delays while the algorithm runs on the other interval.
func TestRunPulseParamsBounds(t *testing.T) {
	g, _ := NewGrid(10, 8)
	one := Bounds{Min: Nanosecond, Max: Nanosecond}
	params := DefaultParams()
	params.Bounds = one
	for _, cfg := range []PulseConfig{
		{Grid: g, Params: params, Seed: 1},
		{Grid: g, Params: params, Bounds: one, Seed: 1},
		{Grid: g, Bounds: one, Seed: 1},
	} {
		rep, err := RunPulse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Every link delay is exactly 1 ns and layer 0 fires at once, so
		// every inter-layer skew is 1 ns.
		if s := rep.InterSummary; s.Min != 1 || s.Max != 1 {
			t.Errorf("Params.Bounds=%v Bounds=%v: inter-layer skews in [%.3f, %.3f] ns, want exactly 1",
				cfg.Params.Bounds, cfg.Bounds, s.Min, s.Max)
		}
	}
	if _, err := RunPulse(PulseConfig{Grid: g, Params: params, Bounds: PaperBounds, Seed: 1}); err == nil {
		t.Error("Bounds contradicting Params.Bounds accepted")
	}
}

func TestRunPulseDeterministic(t *testing.T) {
	g, _ := NewGrid(8, 6)
	a, err := RunPulse(PulseConfig{Grid: g, Scenario: ScenarioUniformDPlus, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPulse(PulseConfig{Grid: g, Scenario: ScenarioUniformDPlus, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.IntraSummary != b.IntraSummary || a.InterSummary != b.InterSummary {
		t.Error("facade runs not deterministic")
	}
}

func TestPlaceRandomFaultsFacade(t *testing.T) {
	g, _ := NewGrid(12, 10)
	plan := NewFaultPlan(g)
	placed, err := PlaceRandomFaults(g, plan, 3, Byzantine, NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 3 || plan.NumFaulty() != 3 {
		t.Error("placement failed")
	}
	rep, err := RunPulse(PulseConfig{Grid: g, Faults: plan, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range placed {
		if rep.Wave.Valid(n) {
			t.Error("faulty node counted in wave")
		}
	}
}

// TestTheorem1HoldsOnRandomRuns is the library's headline property test:
// for random seeds and scenarios with Δ0 = 0, the measured intra-layer
// skews never exceed Theorem 1's uniform bound.
func TestTheorem1HoldsOnRandomRuns(t *testing.T) {
	g, _ := NewGrid(20, 12)
	bound := Theorem1Bound(20, 12, PaperBounds, 0).Nanoseconds()
	f := func(seed uint64, scen uint8) bool {
		sc := []Scenario{ScenarioZero, ScenarioUniformDMinus}[scen%2]
		rep, err := RunPulse(PulseConfig{Grid: g, Scenario: sc, Seed: seed})
		if err != nil {
			return false
		}
		return rep.IntraSummary.Max <= bound+0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLemma3SkewPotentialOnRandomRuns checks Δℓ ≤ 2(W−2)ε for layers
// ℓ ≥ W−2, for arbitrary (even ramped) layer-0 skews.
func TestLemma3SkewPotentialOnRandomRuns(t *testing.T) {
	const L, W = 20, 8
	g, _ := NewGrid(L, W)
	bound := theory.Lemma3SkewPotential(W, PaperBounds)
	f := func(seed uint64) bool {
		rep, err := RunPulse(PulseConfig{Grid: g, Scenario: ScenarioRamp, Seed: seed})
		if err != nil {
			return false
		}
		for l := W - 2; l <= L; l++ {
			if analysis.SkewPotential(rep.Wave, g, l, PaperBounds.Min) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestLemma5WindowsUnderFaults checks the triggering-time windows of
// Lemma 5 on random fault configurations satisfying Condition 1.
func TestLemma5WindowsUnderFaults(t *testing.T) {
	const L, W = 15, 10
	g, _ := NewGrid(L, W)
	f := func(seed uint64, fc uint8) bool {
		faults := int(fc % 4)
		plan := NewFaultPlan(g)
		if faults > 0 {
			if _, err := PlaceRandomFaults(g, plan, faults, Byzantine, NewRNG(seed)); err != nil {
				return false
			}
		}
		rep, err := RunPulse(PulseConfig{Grid: g, Scenario: ScenarioZero, Faults: plan, Seed: seed})
		if err != nil {
			return false
		}
		for n := 0; n < g.NumNodes(); n++ {
			if !rep.Wave.Valid(n) {
				continue
			}
			l := g.LayerOf(n)
			// Count layers below l with a fault (the fl of Lemma 5).
			fl := 0
			for lay := 0; lay < l; lay++ {
				for _, m := range g.Layer(lay) {
					if plan.IsFaulty(m) {
						fl++
						break
					}
				}
			}
			lo, hi := theory.Lemma5TriggerWindow(0, 0, l, fl, PaperBounds)
			if rep.Wave.T[n] < lo || rep.Wave.T[n] > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestInterLayerWindowTheorem1 checks Theorem 1's inter-layer relation on
// a random run: t_{ℓ,i} ∈ [t_{ℓ−1,·} − σ_{ℓ−1} + d−, t_{ℓ−1,·} + σ_{ℓ−1} + d+]
// with σ the measured per-layer intra skew.
func TestInterLayerWindowTheorem1(t *testing.T) {
	g, _ := NewGrid(15, 10)
	rep, err := RunPulse(PulseConfig{Grid: g, Scenario: ScenarioUniformDPlus, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Wave
	// Layer 0 carries no intra-layer links; its neighbor skew comes from
	// the schedule offsets directly.
	sigmaLayer := func(l int) Time {
		if l > 0 {
			if s := w.MaxIntraSkewLayer(l); s >= 0 {
				return s
			}
			return 0
		}
		var max Time
		for i := 0; i < g.W; i++ {
			d := w.T[g.NodeID(0, i)] - w.T[g.NodeID(0, (i+1)%g.W)]
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
		return max
	}
	for l := 1; l <= g.L; l++ {
		lo, hi := theory.Theorem1InterWindow(sigmaLayer(l-1), PaperBounds)
		for _, n := range g.Layer(l) {
			for _, lower := range []func(int) (int, bool){g.LowerLeftNeighbor, g.LowerRightNeighbor} {
				ln, ok := lower(n)
				if !ok {
					continue
				}
				d := w.T[n] - w.T[ln]
				if d < lo || d > hi {
					t.Fatalf("layer %d: inter skew %v outside [%v, %v] (σ_{ℓ−1}=%v)", l, d, lo, hi, sigmaLayer(l-1))
				}
			}
		}
	}
}

func TestRunStabilizationFacade(t *testing.T) {
	g, _ := NewGrid(10, 8)
	to := Condition2(3*PaperBounds.Max, PaperBounds, g.L, 0, PaperDrift)
	rep, err := RunStabilization(StabilizationConfig{
		Grid:     g,
		Scenario: ScenarioUniformDPlus,
		Pulses:   8,
		Timeouts: to,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StabilizedAt == 0 {
		t.Fatal("did not stabilize")
	}
	if rep.StabilizedAt > theory.Theorem2StabilizationPulses(g.L) {
		t.Errorf("stabilized at %d, beyond Theorem 2's bound", rep.StabilizedAt)
	}
	if len(rep.Assignment.Waves) != 8 {
		t.Error("assignment wave count wrong")
	}
}

func TestRunStabilizationWithFaults(t *testing.T) {
	g, _ := NewGrid(10, 8)
	plan := NewFaultPlan(g)
	if _, err := PlaceRandomFaults(g, plan, 2, FailSilent, NewRNG(8)); err != nil {
		t.Fatal(err)
	}
	to := Condition2(4*PaperBounds.Max, PaperBounds, g.L, 2, PaperDrift)
	rep, err := RunStabilization(StabilizationConfig{
		Grid:     g,
		Scenario: ScenarioZero,
		Timeouts: to,
		Faults:   plan,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With fail-silent faults the fixed 2d+ facade threshold may or may
	// not hold; the run must at least complete and assign pulses.
	if len(rep.Assignment.Waves) != 10 {
		t.Error("default pulse count wrong")
	}
}

func TestFacadeBoundHelpers(t *testing.T) {
	if Theorem1Bound(50, 20, PaperBounds, 0) != theory.Theorem1IntraBound(50, 20, delay.Paper, 0) {
		t.Error("Theorem1Bound disagrees with theory package")
	}
	if Lemma5Bound(100, 50, 3, PaperBounds) != theory.Lemma5PulseSkewBound(100, 50, 3, delay.Paper) {
		t.Error("Lemma5Bound disagrees")
	}
	to := Condition2(30*Nanosecond, PaperBounds, 50, 5, PaperDrift)
	if to != theory.Condition2(30*sim.Nanosecond, delay.Paper, 50, 5, theory.PaperDrift) {
		t.Error("Condition2 disagrees")
	}
}

func TestScenarioConstantsMatch(t *testing.T) {
	if ScenarioZero != source.Zero || ScenarioRamp != source.Ramp {
		t.Error("scenario constants drifted")
	}
}

// TestScenarioOrderingAcrossRuns reproduces Table 1's qualitative ordering
// at small scale: ramp skews dominate, scenario (i) is the calmest.
func TestScenarioOrderingAcrossRuns(t *testing.T) {
	g, _ := NewGrid(15, 10)
	avg := func(sc Scenario) float64 {
		var total float64
		const runs = 10
		for seed := uint64(0); seed < runs; seed++ {
			rep, err := RunPulse(PulseConfig{Grid: g, Scenario: sc, Seed: 100 + seed})
			if err != nil {
				t.Fatal(err)
			}
			total += rep.IntraSummary.Avg
		}
		return total / runs
	}
	zero, ramp := avg(ScenarioZero), avg(ScenarioRamp)
	if ramp <= zero {
		t.Errorf("ramp avg %.3f not above zero-scenario avg %.3f", ramp, zero)
	}
}

func TestRunPulseNilGrid(t *testing.T) {
	if _, err := RunPulse(PulseConfig{}); err == nil {
		t.Error("nil grid accepted by RunPulse")
	}
}

func TestRunStabilizationValidation(t *testing.T) {
	if _, err := RunStabilization(StabilizationConfig{}); err == nil {
		t.Error("nil grid accepted by RunStabilization")
	}
	g, _ := NewGrid(5, 5)
	if _, err := RunStabilization(StabilizationConfig{Grid: g}); err == nil {
		t.Error("missing timeouts accepted by RunStabilization")
	}
}
