package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
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

// cancelAfter is a context whose Err reports context.Canceled from its
// k-th call on, so a test can stop a run at a chosen poll of the engine's
// stop check without depending on timing.
type cancelAfter struct {
	context.Context
	calls, k int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestRunCancelledMidway cancels at the third poll of the run's context
// and checks that the run stops early at both event granularities: the
// context's error surfaces and the partial result reports some events,
// strictly fewer than the uncancelled baseline. At the event level the
// third poll is the engine's after 512 executed events; Result.Events also
// counts retired events, some due after the stop point, so the engine's
// executed count shows its progress. At the firing level it is the
// sweep's poll before layer 1, so only the sources' events count, and the
// engine executes none.
func TestRunCancelledMidway(t *testing.T) {
	base, err := Run(cancelConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, eventLevel := range []bool{false, true} {
		cfg := cancelConfig(t)
		// Err's first call is run's check. Then the engine polls before
		// its first event and after 512 events, the sweep before each
		// layer (none is 512 nodes wide).
		cfg.Context = &cancelAfter{Context: context.Background(), k: 3}
		a := NewArena()
		a.nw.eventLevel = eventLevel
		res, err := a.Run(cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("eventLevel=%t: err = %v, want context.Canceled", eventLevel, err)
		}
		if res == nil {
			t.Fatalf("eventLevel=%t: cancelled run returned no partial result", eventLevel)
		}
		if a.nw.firing == eventLevel {
			t.Fatalf("eventLevel=%t: the run took the other level", eventLevel)
		}
		if eventLevel && a.nw.eng.Executed == 0 {
			t.Fatal("event level: cancelled run executed zero events; expected partial progress")
		}
		if !eventLevel && a.nw.eng.Executed != 0 {
			t.Fatalf("firing level: the engine executed %d events", a.nw.eng.Executed)
		}
		if res.Events == 0 || res.Events >= base.Events {
			t.Fatalf("eventLevel=%t: cancelled run counted %d events, baseline %d; the run did not stop early",
				eventLevel, res.Events, base.Events)
		}
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
