package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
)

// cancelConfig builds a mid-sized fault-free single-pulse run.
func cancelConfig(t *testing.T) Config {
	t.Helper()
	h, err := grid.NewHex(40, 20)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:    h.Graph,
		Params:   DefaultParams(),
		Delay:    delay.Uniform{Bounds: delay.Paper},
		Faults:   fault.NewPlan(h.NumNodes()),
		Schedule: source.SinglePulse(source.Offsets(source.Zero, 20, delay.Paper, nil)),
		Seed:     7,
	}
}

// TestRunCancelledMidway cancels from inside the simulation (via the
// OnTrigger observer, so the test is timing-independent) and checks that
// the engine stops early: the partial result reports strictly fewer
// events than the uncancelled baseline, and the context's error surfaces.
// Result.Events also counts retired events, some due after the stop
// point, so partial progress is read from the engine's executed count.
func TestRunCancelledMidway(t *testing.T) {
	base, err := Run(cancelConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := cancelConfig(t)
	cfg.Context = ctx
	triggers := 0
	cfg.OnTrigger = func(int, sim.Time) {
		triggers++
		if triggers == 50 {
			cancel()
		}
	}
	a := NewArena()
	res, err := a.Run(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if a.nw.eng.Executed == 0 {
		t.Fatal("cancelled run executed zero events; expected partial progress")
	}
	if res.Events >= base.Events {
		t.Fatalf("cancelled run executed %d events, baseline %d; engine did not stop early",
			res.Events, base.Events)
	}
}

// TestRunPreCancelled verifies an already-done context stops the run
// before any event executes.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cancelConfig(t)
	cfg.Context = ctx
	res, err := Run(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Events != 0 {
		t.Fatalf("pre-cancelled run executed %d events", res.Events)
	}
}

// TestRunWithContextDeterministic verifies that threading a context that
// never cancels does not perturb the simulation.
func TestRunWithContextDeterministic(t *testing.T) {
	base, err := Run(cancelConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cancelConfig(t)
	cfg.Context = context.Background()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != base.Events {
		t.Fatalf("events differ with context: %d vs %d", res.Events, base.Events)
	}
	for n := range base.Triggers {
		if len(base.Triggers[n]) != len(res.Triggers[n]) {
			t.Fatalf("node %d trigger count differs", n)
		}
		for i := range base.Triggers[n] {
			if base.Triggers[n][i] != res.Triggers[n][i] {
				t.Fatalf("node %d trigger %d differs", n, i)
			}
		}
	}
}
