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
// replaces DefaultParams' sleep period. A non-nil doubling runs on the
// doubling topology of Fig. 21 instead, W wide at layer 0 and with one
// forwarding layer per entry (L is then len(doubling)).
type servedCase struct {
	L, W      int
	plus      bool
	doubling  []bool
	faults    int
	behav     fault.Behavior
	scenario  source.Scenario
	seed      uint64
	firstOnly bool
	sleep     sim.Time
}

func (c servedCase) String() string {
	topo := fmt.Sprintf("plus%t", c.plus)
	if c.doubling != nil {
		topo = fmt.Sprintf("doubling%v", c.doubling)
	}
	return fmt.Sprintf("L%d_W%d_%s_f%d_%s_%s_s%d_first%t",
		c.L, c.W, topo, c.faults, c.behav, c.scenario.Name(), c.seed, c.firstOnly)
}

// graph builds the case's topology.
func (c servedCase) graph() *grid.Graph {
	switch {
	case c.doubling != nil:
		d, err := grid.NewDoubling(c.W, c.doubling)
		if err != nil {
			panic(err)
		}
		return d.Graph
	case c.plus:
		return grid.MustHexPlus(c.L, c.W).Graph
	}
	return grid.MustHex(c.L, c.W).Graph
}

// config builds the case's run; ok is false when its faults cannot be
// placed under Condition 1.
func (c servedCase) config() (cfg Config, ok bool) {
	g := c.graph()
	plan := fault.NewPlan(g.NumNodes())
	if c.faults > 0 {
		rng := sim.NewRNG(sim.DeriveSeed(c.seed, "faults"))
		if _, err := fault.Place(context.Background(), g, plan, c.faults, nil, c.behav, rng); err != nil {
			return Config{}, false
		}
	}
	p := DefaultParams()
	if c.sleep > 0 {
		p.TSleepMin, p.TSleepMax = c.sleep, c.sleep
	}
	return Config{
		Graph:  g,
		Params: p,
		Delay:  delay.Uniform{Bounds: p.Bounds},
		Faults: plan,
		Schedule: source.SinglePulse(source.Offsets(c.scenario, c.W, p.Bounds,
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

// randomDoublingCase draws a case on the doubling topology: layer-0 width
// 3-8, 1-12 forwarding layers, each a doubling layer with probability ½,
// and 0-2 Byzantine or fail-silent faults.
func randomDoublingCase(rng *sim.RNG) servedCase {
	c := randomServedCase(rng)
	c.plus, c.W, c.faults = false, 3+rng.Intn(6), rng.Intn(3)
	c.doubling = make([]bool, 1+rng.Intn(12))
	for l := range c.doubling {
		c.doubling[l] = rng.Bool()
	}
	c.L = len(c.doubling)
	return c
}

// TestFiringLevelDoubling is TestFiringLevelServedShape on 500 runs of
// the doubling topology (Fig. 21), whose rings change width from layer to
// layer: a doubling layer settles a ring twice as wide as the one its
// lower inputs come from.
func TestFiringLevelDoubling(t *testing.T) {
	rng := sim.NewRNG(30)
	a := NewArena()
	for ran := 0; ran < 500; {
		if randomDoublingCase(rng).check(t, a) {
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
	{L: 6, W: 3, doubling: []bool{true, false, true, true, false, true}, faults: 2,
		behav: fault.Byzantine, scenario: source.Ramp, seed: 29},
	{L: 12, W: 8, doubling: []bool{false, true, false, false, true, false, true, false, false, true, false, false},
		faults: 1, behav: fault.FailSilent, scenario: source.UniformDPlus, seed: 31, firstOnly: true},
}

// FuzzFiringLevel is the served-shape differential as a fuzz target: any
// run hexd can serve, and any run of the doubling topology, must give the
// same Result at the firing and the event level. topo picks HEX, HEX+ or
// the doubling topology, whose layer l+1 doubles if bit l of pattern is
// set; on it l, w and faults are reduced to its own ranges.
func FuzzFiringLevel(f *testing.F) {
	for _, c := range firingSeeds {
		topo, pattern := uint(0), uint16(0)
		if c.plus {
			topo = 1
		}
		if c.doubling != nil {
			topo = 2
			for l, dbl := range c.doubling {
				if dbl {
					pattern |= 1 << l
				}
			}
		}
		f.Add(c.seed, uint(c.L-1), uint(c.W-3), uint(c.faults), topo, pattern,
			c.behav == fault.Byzantine, uint(c.scenario), c.firstOnly)
	}
	f.Fuzz(func(t *testing.T, seed uint64, l, w, faults, topo uint, pattern uint16, byzantine bool, scenario uint, firstOnly bool) {
		c := servedCase{
			L:         int(l%30) + 1,
			W:         int(w%19) + 3,
			plus:      topo%3 == 1,
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
		if topo%3 == 2 {
			c.L, c.W, c.faults = int(l%12)+1, int(w%6)+3, int(faults%3)
			c.doubling = make([]bool, c.L)
			for i := range c.doubling {
				c.doubling[i] = pattern>>i&1 == 1
			}
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
		// With every ring link stuck at 0, each message reaches a node of
		// the layer above its sender, which the sweep settles after the
		// sender fires: a HEX+ node fires on one lower pair and, woken
		// after 1 ps, again on another. Only arrivals at such receivers
		// show the fallback is needed.
		{"fallback-lower-only", servedCase{L: 10, W: 9, plus: true, scenario: source.UniformDPlus,
			seed: 3, sleep: 1}, func(c *Config) {
			for id := range c.Graph.NumNodes() {
				for _, in := range c.Graph.In(id) {
					if in.Role == grid.RoleLeft || in.Role == grid.RoleRight {
						c.Faults.SetLink(in.From, id, fault.LinkStuck0)
					}
				}
			}
		}},
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
			if (tc.name == "fallback-sleep-1ps" || tc.name == "fallback-lower-only") && !firedTwice(want) {
				t.Fatal("no node fired twice; the case does not need its fallback")
			}
		})
	}
	for _, arm := range engineArms {
		cfg, _ := base.config()
		a := NewArena()
		a.nw.heapQueue, a.nw.executeAll = arm.heap, arm.executeAll
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
// sweep completes under one poll per layer, the event-level rerun arms the
// engine's poll and stops after 512 events. Its partial Result must equal
// the event level's cancelled at the same point, which shows the rerun
// kept the cancellation poll.
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
	// one per 512 events. Production first polls before each of the
	// sweep's L+1 layers, each narrower than one in-layer poll interval.
	sameResult(t, "cancelled fallback", run(true, 3), run(false, 3+fallbackCase.L+1))
}

// TestSweepPollsWithinLayer cancels an L1_W4096 pulse at the second poll
// inside its forwarding layer: fewer than all 4,096 layer-1 nodes may
// fire. A sweep that polled only once per layer would never make that
// call and fire them all.
func TestSweepPollsWithinLayer(t *testing.T) {
	const w = 4096
	c := servedCase{L: 1, W: w, scenario: source.UniformDPlus, seed: 5, firstOnly: true}
	cfg, _ := c.config()
	// Err's calls: run's check, the poll before layer 0, its in-layer
	// polls (one per further 512 nodes), the poll before layer 1 and then
	// layer 1's first two in-layer polls.
	inLayer := (w - 1) / sim.DefaultStopCheckInterval
	cfg.Context = &cancelAfter{Context: context.Background(), k: 1 + 1 + inLayer + 1 + 2}
	res, err := NewArena().Run(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	fired := 0
	for _, id := range cfg.Graph.Layer(1) {
		if res.FirstTriggers[id] != NoTrigger {
			fired++
		}
	}
	if fired >= w {
		t.Fatalf("all %d layer-1 nodes fired; the sweep did not stop within the layer", fired)
	}
}

// TestSweepLongestChains runs L2_W8 pulses in which layer 1 settles
// through one chain of help that spans the whole ring: a Byzantine source
// sets one lower input of its layer-1 neighbours stuck at 1 and blocks the
// other, so each of those nodes can fire only through its ring neighbour.
// One source stays correct and grounds the chain at the last node of the
// ring (rightward, through Left inputs) or at the first (leftward, through
// Right inputs), the starts from which a pass needs its every step. A
// broken chain makes layer-1 node 3 Byzantine with every out-link
// correct: it never fires, so it helps no one, and the chain stops at it.
// Layer 2 then has correct lower inputs whose senders never fired.
func TestSweepLongestChains(t *testing.T) {
	const w, broken = 8, 3
	for _, tc := range []struct{ rightward, broken bool }{
		{true, false}, {false, false}, {true, true}, {false, true},
	} {
		name := fmt.Sprintf("rightward=%t broken=%t", tc.rightward, tc.broken)
		c := servedCase{L: 2, W: w, scenario: source.Zero, seed: 7}
		cfg, _ := c.config()
		h := grid.MustHex(2, w)
		// Source col drives the LowerLeft input of layer-1 node col and
		// the LowerRight input of node col−1; source 0 stays correct.
		ll, lr := fault.LinkStuck1, fault.LinkStuck0
		if !tc.rightward {
			ll, lr = fault.LinkStuck0, fault.LinkStuck1
		}
		for col := 1; col < w; col++ {
			src := h.NodeID(0, col)
			cfg.Faults.SetBehavior(src, fault.Byzantine)
			cfg.Faults.SetLink(src, h.NodeID(1, col), ll)
			cfg.Faults.SetLink(src, h.NodeID(1, col-1), lr)
		}
		if tc.broken {
			id := h.NodeID(1, broken)
			cfg.Faults.SetBehavior(id, fault.Byzantine)
			for _, out := range h.Out(id) {
				cfg.Faults.SetLink(id, out.To, fault.LinkCorrect)
			}
		}
		a := NewArena()
		want, _ := runLevel(t, a, cfg, true)
		got, firing := runLevel(t, a, cfg, false)
		if !firing {
			t.Fatalf("%s: production left the firing level", name)
		}
		sameResult(t, name, want, got)
		for col := 0; col < w; col++ {
			// A broken chain stops at node 3: 4..6 rightward and 1..2
			// leftward never fire.
			fires := 1
			if tc.broken && (col == broken || tc.rightward && col > broken && col < w-1 ||
				!tc.rightward && col > 0 && col < broken) {
				fires = 0
			}
			if n := len(got.Triggers[h.NodeID(1, col)]); n != fires {
				t.Fatalf("%s: layer-1 node %d fired %d times, want %d", name, col, n, fires)
			}
		}
	}
}
