package hex

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/pulsegen"
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

// TestGoldenPulseTrain pins RunPulseTrain's exact output for one fixed
// pulsegen schedule, fault plan and seed: the event count, the horizon and
// a SHA-256 over every node's trigger history. Like TestGoldenRun, a
// failure means the multi-pulse engine's observable behavior changed.
func TestGoldenPulseTrain(t *testing.T) {
	g, err := NewGrid(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	b := PaperBounds
	to := Condition2(4*b.Max, b, g.L, 2, PaperDrift)
	gen, err := pulsegen.Run(pulsegen.Config{
		N:              g.W,
		Faulty:         []int{2},
		AssumedFaults:  2,
		Period:         to.Separation + 4*b.Max,
		Pulses:         4,
		Bounds:         b,
		Drift:          Drift{Num: 1001, Den: 1000},
		Seed:           11,
		ByzantineEager: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan(g)
	plan.SetBehavior(g.NodeID(0, 2), FailSilent)
	if _, err := fault.Place(g.Graph, plan, 1, g.Layer(5), Byzantine, NewRNG(13)); err != nil {
		t.Fatal(err)
	}
	res, err := RunPulseTrain(g, plan, gen.Schedule(), to, 17)
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	for _, ts := range res.Triggers {
		binary.Write(h, binary.LittleEndian, int64(len(ts)))
		for _, tt := range ts {
			binary.Write(h, binary.LittleEndian, int64(tt))
		}
	}
	const (
		wantEvents  = 3511
		wantHorizon = 1277967
		wantDigest  = "6c4e49424be36bd493d522475e506f53f15394d6299287e542f0568df68f770b"
	)
	if got := fmt.Sprintf("%x", h.Sum(nil)); res.Events != wantEvents || res.Horizon != wantHorizon || got != wantDigest {
		t.Errorf("RunPulseTrain: events %d, horizon %d ps, triggers sha256 %s; pinned %d, %d ps, %s",
			res.Events, int64(res.Horizon), got, wantEvents, wantHorizon, wantDigest)
	}
}
