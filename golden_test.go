package hex

import (
	"math"
	"testing"
)

// TestGoldenRun pins the exact output of one fixed-seed simulation. Every
// run is a pure function of (config, seed); if this test starts failing,
// the simulator's observable behavior changed — intentional changes must
// update the constants and be called out in the changelog, since they
// silently re-randomize every experiment in EXPERIMENTS.md.
func TestGoldenRun(t *testing.T) {
	g, err := NewGrid(50, 20)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunPulse(PulseConfig{Grid: g, Scenario: ScenarioUniformDPlus, Seed: 424242})
	if err != nil {
		t.Fatal(err)
	}

	approx := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if rep.IntraSummary.N != 1000 || rep.InterSummary.N != 2000 {
		t.Fatalf("sample counts changed: %d/%d", rep.IntraSummary.N, rep.InterSummary.N)
	}
	approx("intra.Min", rep.IntraSummary.Min, 0.001)
	approx("intra.Avg", rep.IntraSummary.Avg, 0.46874600000000005)
	approx("intra.Max", rep.IntraSummary.Max, 5.825)
	approx("inter.Min", rep.InterSummary.Min, 7.164)
	approx("inter.Avg", rep.InterSummary.Avg, 7.999080999999997)
	approx("inter.Max", rep.InterSummary.Max, 14.707)

	if got := rep.Wave.T[g.NodeID(50, 0)]; got != 403577*Picosecond {
		t.Errorf("t(50,0) = %v, want 403.577ns", got)
	}
}
