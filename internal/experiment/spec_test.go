package experiment

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/source"
)

// small returns fast reduced-scale options for integration tests.
func small() Options { return Options{L: 12, W: 8, Runs: 8, Seed: 3} }

func TestSpecDefaults(t *testing.T) {
	s := Spec{}.WithDefaults()
	if s.L != 50 || s.W != 20 || s.Runs != 250 || s.Seed != 1 {
		t.Errorf("defaults: %+v", s)
	}
	if s.Bounds != delay.Paper {
		t.Error("default bounds wrong")
	}
	if s.params() != core.DefaultParams() {
		t.Error("default params wrong")
	}
	s = Spec{Faults: 2}.WithDefaults()
	if s.FaultType != fault.Byzantine {
		t.Error("default fault type should be Byzantine")
	}
}

func TestRunOneProducesWave(t *testing.T) {
	out, err := RunOne(Spec{L: 8, W: 6, Scenario: source.Zero, Runs: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Wave.AllForwardersTriggered() {
		t.Error("incomplete wave")
	}
}

func TestRunManyDeterministicAndOrdered(t *testing.T) {
	spec := Spec{L: 8, W: 6, Scenario: source.UniformDPlus, Runs: 6, Seed: 5}
	a, err := RunMany(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMany(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("run counts %d/%d", len(a), len(b))
	}
	for i := range a {
		for n := range a[i].Wave.T {
			if a[i].Wave.T[n] != b[i].Wave.T[n] {
				t.Fatalf("run %d node %d differs between invocations", i, n)
			}
		}
	}
	// Distinct runs differ.
	same := true
	for n := range a[0].Wave.T {
		if a[0].Wave.T[n] != a[1].Wave.T[n] {
			same = false
			break
		}
	}
	if same {
		t.Error("two runs produced identical waves")
	}
}

func TestRunManyWithFaults(t *testing.T) {
	spec := Spec{L: 10, W: 8, Scenario: source.UniformDPlus, Runs: 4, Faults: 3, Seed: 7}
	outs, err := RunMany(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if got := o.Plan.NumFaulty(); got != 3 {
			t.Errorf("run %d has %d faults", i, got)
		}
		if ok, v := fault.Condition1(o.Hex.Graph, o.Plan); !ok {
			t.Errorf("run %d violates Condition 1 at %d", i, v)
		}
	}
	// Placements differ across runs.
	if outs[0].Plan.FaultyNodes()[0] == outs[1].Plan.FaultyNodes()[0] &&
		outs[0].Plan.FaultyNodes()[1] == outs[1].Plan.FaultyNodes()[1] &&
		outs[0].Plan.FaultyNodes()[2] == outs[1].Plan.FaultyNodes()[2] {
		t.Log("warning: identical placements in two runs (possible but unlikely)")
	}
}

func TestParallelFor(t *testing.T) {
	var count int64
	seen := make([]bool, 100)
	parallelFor(context.Background(), 100, func(i int) {
		atomic.AddInt64(&count, 1)
		seen[i] = true
	})
	if count != 100 {
		t.Errorf("body ran %d times", count)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d skipped", i)
		}
	}
	// n smaller than worker count.
	ran := 0
	parallelFor(context.Background(), 1, func(int) { ran++ })
	if ran != 1 {
		t.Error("single-item parallelFor broken")
	}
	parallelFor(context.Background(), 0, func(int) { t.Error("body called for n=0") })
}

func TestCollectSkewsHops(t *testing.T) {
	spec := Spec{L: 10, W: 8, Scenario: source.Zero, Runs: 3, Faults: 1, Seed: 11}
	outs, err := RunMany(spec)
	if err != nil {
		t.Fatal(err)
	}
	i0, e0 := CollectSkews(outs, 0)
	i1, e1 := CollectSkews(outs, 1)
	if len(i1) >= len(i0) || len(e1) >= len(e0) {
		t.Errorf("h=1 exclusion did not shrink data: intra %d→%d inter %d→%d",
			len(i0), len(i1), len(e0), len(e1))
	}
	// CollectSkews with hops must not mutate the stored waves.
	i0b, _ := CollectSkews(outs, 0)
	if len(i0b) != len(i0) {
		t.Error("CollectSkews mutated its inputs")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.L != 50 || o.W != 20 || o.Runs != 250 || o.Seed != 1 {
		t.Errorf("options defaults: %+v", o)
	}
}
