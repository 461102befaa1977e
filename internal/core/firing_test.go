package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/theory"
)

// servedCase is one run in the shape hexd serves, built as
// experiment.NewPulse builds it and run as Pulse.Run runs it: faults placed
// by fault.Place on the seed's "faults" stream, the scenario's layer-0
// offsets on its "offsets" stream, DefaultParams with uniform delays over
// their bounds, one pulse, in either result shape. A nonzero sleep
// replaces DefaultParams' sleep period.
type servedCase struct {
	L, W      int
	plus      bool
	faults    int
	behav     fault.Behavior
	scenario  source.Scenario
	seed      uint64
	firstOnly bool
	sleep     sim.Time
}

func (c servedCase) String() string {
	return fmt.Sprintf("L%d_W%d_plus%t_f%d_%s_%s_s%d_first%t",
		c.L, c.W, c.plus, c.faults, c.behav, c.scenario.Name(), c.seed, c.firstOnly)
}

// config builds the case's run; ok is false when its faults cannot be
// placed under Condition 1.
func (c servedCase) config() (cfg Config, ok bool) {
	h := grid.MustHex(c.L, c.W)
	if c.plus {
		h = grid.MustHexPlus(c.L, c.W)
	}
	plan := fault.NewPlan(h.NumNodes())
	if c.faults > 0 {
		rng := sim.NewRNG(sim.DeriveSeed(c.seed, "faults"))
		if _, err := fault.Place(h.Graph, plan, c.faults, nil, c.behav, rng); err != nil {
			return Config{}, false
		}
	}
	p := DefaultParams()
	if c.sleep > 0 {
		p.TSleepMin, p.TSleepMax = c.sleep, c.sleep
	}
	return Config{
		Graph:  h.Graph,
		Params: p,
		Delay:  delay.Uniform{Bounds: p.Bounds},
		Faults: plan,
		Schedule: source.SinglePulse(source.Offsets(c.scenario, h.W, p.Bounds,
			sim.NewRNG(sim.DeriveSeed(c.seed, "offsets")))),
		Seed:             c.seed,
		FirstTriggerOnly: c.firstOnly,
	}, true
}

// runLevel runs cfg on arena a, at the event level if eventLevel is set
// and otherwise as production picks, and reports whether the run ended at
// the firing level.
func runLevel(t *testing.T, a *Arena, cfg Config, eventLevel bool) (*Result, bool) {
	t.Helper()
	a.nw.eventLevel = eventLevel
	res, err := a.Run(cfg)
	if err != nil {
		t.Fatalf("eventLevel=%t: %v", eventLevel, err)
	}
	return res, a.nw.firing
}

// check runs the case at the event level and then on production, which
// takes the firing level, both on arena a, and requires equal Results. It
// reports false, running nothing, when the case's faults cannot be placed.
// Under DefaultParams' sleep production must end at the firing level;
// with a shorter sleep it may fall back.
func (c servedCase) check(t *testing.T, a *Arena) bool {
	t.Helper()
	cfg, ok := c.config()
	if !ok {
		return false
	}
	want, _ := runLevel(t, a, cfg, true)
	got, firing := runLevel(t, a, cfg, false)
	if !firing && c.sleep == 0 {
		t.Fatalf("%v: production left the firing level", c)
	}
	sameResult(t, c.String(), want, got)
	return true
}

// randomServedCase draws a case from the served-shape space: L 1-30, W
// 3-21 (5-21 for HEX+), 0-3 Byzantine or fail-silent faults, any scenario
// and either result shape.
func randomServedCase(rng *sim.RNG) servedCase {
	c := servedCase{
		L:         1 + rng.Intn(30),
		W:         3 + rng.Intn(19),
		plus:      rng.Bool(),
		faults:    rng.Intn(4),
		behav:     fault.Byzantine,
		scenario:  source.Scenarios[rng.Intn(len(source.Scenarios))],
		seed:      rng.Uint64(),
		firstOnly: rng.Bool(),
	}
	if rng.Bool() {
		c.behav = fault.FailSilent
	}
	if c.plus && c.W < 5 {
		c.W = 5
	}
	return c
}

// TestFiringLevelServedShape compares the firing level with the event
// level on 2,000 seeded random runs of the shape hexd serves: triggers or
// first triggers, Events and Horizon must be equal. One arena runs both
// levels of every case, across grids, so each level must re-initialize
// whatever state the other left behind.
func TestFiringLevelServedShape(t *testing.T) {
	rng := sim.NewRNG(29)
	a := NewArena()
	for ran := 0; ran < 2000; {
		if randomServedCase(rng).check(t, a) {
			ran++
		}
	}
}

// TestFiringLevelShortSleeps runs 500 served-shape cases with sleeps from
// 1 ps to 40·d+, mostly shorter than the wave, so that most take the
// fallback and some nodes fire twice: production must still equal the
// event level.
func TestFiringLevelShortSleeps(t *testing.T) {
	rng := sim.NewRNG(31)
	a := NewArena()
	for ran := 0; ran < 500; {
		c := randomServedCase(rng)
		c.sleep = 1 + sim.Time(rng.Intn(int(40*delay.Paper.Max)))
		if c.check(t, a) {
			ran++
		}
	}
}

// firingSeeds are FuzzFiringLevel's seed corpus: both topologies, both
// fault types, every scenario, both result shapes, and the extremes of the
// served-shape space.
var firingSeeds = []servedCase{
	{L: 20, W: 12, scenario: source.Zero, seed: 1},
	{L: 30, W: 21, scenario: source.UniformDPlus, seed: 3, firstOnly: true},
	{L: 25, W: 10, faults: 3, behav: fault.Byzantine, scenario: source.UniformDMinus, seed: 7},
	{L: 18, W: 9, faults: 2, behav: fault.FailSilent, scenario: source.Ramp, seed: 11, firstOnly: true},
	{L: 16, W: 9, plus: true, faults: 3, behav: fault.Byzantine, scenario: source.Ramp, seed: 13},
	{L: 12, W: 5, plus: true, faults: 1, behav: fault.FailSilent, scenario: source.UniformDPlus, seed: 17, firstOnly: true},
	{L: 1, W: 3, scenario: source.UniformDMinus, seed: 19},
	{L: 8, W: 3, faults: 1, behav: fault.Byzantine, scenario: source.Zero, seed: 23},
}

// FuzzFiringLevel is the served-shape differential as a fuzz target: any
// run hexd can serve must give the same Result at the firing and the event
// level.
func FuzzFiringLevel(f *testing.F) {
	for _, c := range firingSeeds {
		f.Add(c.seed, uint(c.L-1), uint(c.W-3), uint(c.faults), c.plus,
			c.behav == fault.Byzantine, uint(c.scenario), c.firstOnly)
	}
	f.Fuzz(func(t *testing.T, seed uint64, l, w, faults uint, plus, byzantine bool, scenario uint, firstOnly bool) {
		c := servedCase{
			L:         int(l%30) + 1,
			W:         int(w%19) + 3,
			plus:      plus,
			faults:    int(faults % 4),
			behav:     fault.FailSilent,
			scenario:  source.Scenarios[scenario%uint(len(source.Scenarios))],
			seed:      seed,
			firstOnly: firstOnly,
		}
		if byzantine {
			c.behav = fault.Byzantine
		}
		if c.plus && c.W < 5 {
			c.W = 5
		}
		c.check(t, NewArena())
	})
}

// TestFiringLevelExclusions runs one served-shape run per condition that
// keeps a run at the event level, and the runs that fall back to it
// because a node could fire twice: each must end at the event level and
// equal the event-level arm's Result.
func TestFiringLevelExclusions(t *testing.T) {
	b := delay.Paper
	base := servedCase{L: 14, W: 9, faults: 2, behav: fault.Byzantine, scenario: source.Ramp, seed: 5}
	for _, tc := range []struct {
		name string
		c    servedCase
		mod  func(*Config)
	}{
		{"tracer", base, func(c *Config) { c.Trace = &eventLog{} }},
		{"two-pulses", base, func(c *Config) {
			off := c.Schedule.Times[0]
			next := make([]sim.Time, len(off))
			for i, at := range off {
				next[i] = at + 2*sim.Millisecond
			}
			c.Schedule = &source.Schedule{Times: [][]sim.Time{off, next}}
		}},
		{"random-init", base, func(c *Config) { c.RandomInit = true }},
		{"link-timers", base, func(c *Config) {
			to := theory.Condition2(3*b.Max, b, base.L, base.faults, theory.PaperDrift)
			c.Params = Params{Bounds: b, TLinkMin: to.TLinkMin, TLinkMax: to.TLinkMax,
				TSleepMin: to.TSleepMin, TSleepMax: to.TSleepMax}
		}},
		{"any-two-guard", base, func(c *Config) { c.Params.Guard = GuardAnyTwo }},
		{"fixed-delays", base, func(c *Config) { c.Delay = delay.Fixed{D: b.Max} }},
		{"func-delays", base, func(c *Config) {
			c.Delay = delay.Func(func(from, to int, at sim.Time, rng *sim.RNG) sim.Time {
				return rng.TimeIn(b.Min, b.Max)
			})
		}},
		{"stuck-at-1-pair", servedCase{L: 6, W: 8, scenario: source.UniformDPlus, seed: 9}, func(c *Config) {
			h := grid.MustHex(6, 8)
			victim := h.NodeID(2, 3)
			ll, _ := h.LowerLeftNeighbor(victim)
			lr, _ := h.LowerRightNeighbor(victim)
			for _, n := range []int{ll, lr} {
				c.Faults.SetBehavior(n, fault.Byzantine)
				c.Faults.SetLink(n, victim, fault.LinkStuck1)
			}
		}},
		// Fallbacks: a sleep shorter than the wave, so messages still
		// arrive after the first wakes. With a 1 ps sleep and a wave that
		// bends around two crashed nodes, nodes do fire twice.
		{"fallback-sleep-6d+", fallbackCase, nil},
		{"fallback-sleep-1ps", servedCase{L: 40, W: 10, faults: 2, behav: fault.FailSilent,
			scenario: source.Zero, seed: 3, sleep: 1}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(eventLevel bool) *Result {
				cfg, ok := tc.c.config()
				if !ok {
					t.Fatal("infeasible faults")
				}
				if tc.mod != nil {
					tc.mod(&cfg)
				}
				a := NewArena()
				res, firing := runLevel(t, a, cfg, eventLevel)
				if firing {
					t.Fatalf("eventLevel=%t: the run ended at the firing level", eventLevel)
				}
				return res
			}
			want := run(true)
			sameResult(t, tc.name, want, run(false))
			if tc.name == "fallback-sleep-1ps" && !firedTwice(want) {
				t.Fatal("no node fired twice; the case does not need its fallback")
			}
		})
	}
	for _, arm := range engineArms {
		cfg, _ := base.config()
		a := NewArena()
		a.nw.heapQueue, a.nw.noBatch, a.nw.executeAll = arm.heap, arm.noBatch, arm.executeAll
		if _, err := a.Run(cfg); err != nil {
			t.Fatal(err)
		}
		if a.nw.firing {
			t.Errorf("%s arm: the run ended at the firing level", arm.name)
		}
	}
}

// fallbackCase is a fault-free L40_W10 pulse whose 6·d+ sleep is shorter
// than its wave, so the firing level falls back.
var fallbackCase = servedCase{L: 40, W: 10, scenario: source.Zero, seed: 3, sleep: 6 * delay.Paper.Max}

// firedTwice reports whether some node of res triggered more than once.
func firedTwice(res *Result) bool {
	for _, ts := range res.Triggers {
		if len(ts) > 1 {
			return true
		}
	}
	return false
}

// TestFiringLevelCancelledFallback cancels a run inside its fallback: the
// firing level completes under one stop-check poll, the event-level rerun
// re-arms the poll and stops after 512 events. Its partial Result must
// equal the event level's cancelled at the same point, which shows the
// rerun kept the cancellation poll.
func TestFiringLevelCancelledFallback(t *testing.T) {
	run := func(eventLevel bool, k int) *Result {
		cfg, _ := fallbackCase.config()
		cfg.Context = &cancelAfter{Context: context.Background(), k: k}
		a := NewArena()
		a.nw.eventLevel = eventLevel
		res, err := a.Run(cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("eventLevel=%t: err = %v, want context.Canceled", eventLevel, err)
		}
		if a.nw.eng.Executed != sim.DefaultStopCheckInterval {
			t.Fatalf("eventLevel=%t: executed %d events, want a stop after %d",
				eventLevel, a.nw.eng.Executed, sim.DefaultStopCheckInterval)
		}
		return res
	}
	// Err's calls: run's check, then one poll per engine run start and
	// one per 512 events. Production polls once more, at the start of the
	// firing level's run.
	sameResult(t, "cancelled fallback", run(true, 3), run(false, 4))
}
