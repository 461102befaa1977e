package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/theory"
)

// sameResult reports whether two Results are bit-identical and fails the
// test with the first divergence otherwise. Events and Horizon are part of
// the comparison: an engine arm must not only trigger every node at the
// same times, it must execute exactly the same event set.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Horizon != b.Horizon {
		t.Fatalf("%s: horizon %v vs %v", label, a.Horizon, b.Horizon)
	}
	if a.Events != b.Events {
		t.Fatalf("%s: events %d vs %d", label, a.Events, b.Events)
	}
	if len(a.Triggers) != len(b.Triggers) {
		t.Fatalf("%s: node counts %d vs %d", label, len(a.Triggers), len(b.Triggers))
	}
	for n := range a.Triggers {
		if len(a.Triggers[n]) != len(b.Triggers[n]) {
			t.Fatalf("%s: node %d triggered %d vs %d times",
				label, n, len(a.Triggers[n]), len(b.Triggers[n]))
		}
		for i := range a.Triggers[n] {
			if a.Triggers[n][i] != b.Triggers[n][i] {
				t.Fatalf("%s: node %d trigger %d: %v vs %v",
					label, n, i, a.Triggers[n][i], b.Triggers[n][i])
			}
		}
	}
}

// engineCase is one randomized configuration of the engine differential:
// the fields cover both topologies, faults of both kinds, random layer-0
// offsets, random initial states, multi-pulse schedules, link timers,
// horizons that cut the run and events that tie in time, i.e. every code
// path that draws randomness, schedules events or retires them.
type engineCase struct {
	L, W    int
	seed    uint64
	hexPlus bool
	faults  int
	behav   fault.Behavior
	random  bool
	pulses  int
	// linkTimers runs under Condition 2's timeouts, so flags expire on
	// their own; otherwise under DefaultParams.
	linkTimers bool
	// cut, if nonzero, ends the run early: 1 halfway up the first wave,
	// 2 halfway through its wakes.
	cut int
	// ties fixes every delay at d+ and every sleep at 2d+, so wakes land
	// on the instants messages arrive, where a dead-event test that
	// compares the two times is most easily wrong. Waves then circulate
	// for as long as the run lasts, so it ends at 40d+.
	ties bool
}

// engineArm is one way of executing a run: the production ring queue
// with batched dispatch, or a structurally different queue or dispatch
// path that must reproduce it bit for bit.
type engineArm struct {
	name                      string
	heap, noBatch, executeAll bool
}

// engineArms lists the arms compared against the production arm. The
// heap and unbatched arms never reach DispatchBatch, so they retire no
// trailing wakes; the execute-all arm files and executes every event.
var engineArms = []engineArm{
	{name: "heap", heap: true},
	{name: "unbatched", noBatch: true},
	{name: "execute-all", executeAll: true},
}

// run executes the case on a fresh arena set to the given arm.
func (c engineCase) run(t *testing.T, arm engineArm) (*Result, *Arena) {
	t.Helper()
	a := NewArena()
	a.nw.heapQueue, a.nw.noBatch, a.nw.executeAll = arm.heap, arm.noBatch, arm.executeAll
	res, err := a.Run(c.config(t))
	if err != nil {
		t.Fatalf("%s arm: %v", arm.name, err)
	}
	return res, a
}

// config builds the case's run.
func (c engineCase) config(t *testing.T) Config {
	t.Helper()
	h := grid.MustHex(c.L, c.W)
	if c.hexPlus {
		h = grid.MustHexPlus(c.L, c.W)
	}
	plan := fault.NewPlan(h.NumNodes())
	if c.faults > 0 {
		rngF := sim.NewRNG(sim.DeriveSeed(c.seed, "faults"))
		placed, err := fault.PlaceRandom(h.Graph, c.faults, nil, rngF, 0)
		if err != nil {
			t.Skipf("infeasible fault count %d on %dx%d", c.faults, c.L, c.W)
		}
		for _, n := range placed {
			plan.SetBehavior(n, c.behav)
		}
		if c.behav == fault.Byzantine {
			plan.RandomizeByzantine(h.Graph, rngF)
		}
	}
	b := delay.Paper
	p, sep := DefaultParams(), sim.Time(0)
	if c.linkTimers {
		to := theory.Condition2(3*b.Max, b, c.L, c.faults, theory.PaperDrift)
		p = Params{Bounds: b, TLinkMin: to.TLinkMin, TLinkMax: to.TLinkMax,
			TSleepMin: to.TSleepMin, TSleepMax: to.TSleepMax}
		sep = to.Separation
	}
	sched := source.SinglePulse(source.Offsets(source.UniformDPlus, h.W, b,
		sim.NewRNG(sim.DeriveSeed(c.seed, "offsets"))))
	if c.pulses > 1 {
		sched = source.NewSchedule(source.UniformDPlus, h.W, c.pulses, b, sep,
			sim.NewRNG(sim.DeriveSeed(c.seed, "offsets")))
	}
	var d delay.Model = delay.Uniform{Bounds: b}
	if c.ties {
		d = delay.Fixed{D: b.Max}
		p.TSleepMin, p.TSleepMax = 2*b.Max, 2*b.Max
	}
	cfg := Config{
		Graph:      h.Graph,
		Params:     p,
		Delay:      d,
		Faults:     plan,
		Schedule:   sched,
		RandomInit: c.random,
		Seed:       c.seed,
	}
	switch {
	case c.ties:
		cfg.Horizon = 40 * b.Max
	case c.cut == 1:
		cfg.Horizon = sim.Time(c.L/2+1) * b.Max
	case c.cut == 2:
		cfg.Horizon = p.TSleepMin + sim.Time(c.L/2+1)*b.Max
	}
	return cfg
}

// checkArms runs c on the production arm and on every engineArms entry and
// requires bit-identical Results. Every node's event-key and draw counters
// must end equal too: a retired event still takes its key and its draws,
// so no other event moves, even where a moved key would change no result.
func (c engineCase) checkArms(t *testing.T) {
	t.Helper()
	want, wa := c.run(t, engineArm{name: "ring"})
	for _, arm := range engineArms {
		got, ga := c.run(t, arm)
		sameResult(t, arm.name, want, got)
		if !slices.Equal(wa.nw.seqCtr, ga.nw.seqCtr) || !slices.Equal(wa.nw.rngCtr, ga.nw.rngCtr) {
			t.Fatalf("%s: per-node event-key or draw counters differ", arm.name)
		}
	}
}

// TestEngineArmsMatch pins that the ring queue, batched dispatch and dead
// event retirement are invisible in the results: the forced 4-ary heap,
// one-at-a-time dispatch and executing every event reproduce every Result
// bit for bit, Events included, across grids, topologies, fault plans,
// initial states, schedules, link timers and horizons.
func TestEngineArmsMatch(t *testing.T) {
	cases := []engineCase{
		{L: 15, W: 8, seed: 1},
		{L: 20, W: 12, seed: 7, faults: 2, behav: fault.Byzantine},
		{L: 12, W: 9, seed: 11, faults: 2, behav: fault.FailSilent},
		{L: 18, W: 10, seed: 13, hexPlus: true},
		{L: 16, W: 9, seed: 17, hexPlus: true, faults: 3, behav: fault.Byzantine},
		{L: 10, W: 8, seed: 19, random: true},
		{L: 14, W: 8, seed: 23, pulses: 3},
		{L: 8, W: 3, seed: 29}, // minimal width: wrap-around links double up
		{L: 25, W: 20, seed: 31, faults: 4, behav: fault.Byzantine, random: true, pulses: 2},
		{L: 12, W: 8, seed: 37, linkTimers: true, random: true, pulses: 3},
		{L: 14, W: 9, seed: 41, linkTimers: true, faults: 2, behav: fault.Byzantine, pulses: 2},
		{L: 20, W: 12, seed: 43, cut: 1},
		{L: 20, W: 12, seed: 47, cut: 2, faults: 2, behav: fault.FailSilent},
		{L: 16, W: 10, seed: 53, linkTimers: true, random: true, pulses: 3, cut: 2},
		{L: 6, W: 5, seed: 59, random: true, ties: true},
		{L: 10, W: 6, seed: 61, random: true, pulses: 2, faults: 1, behav: fault.Byzantine, ties: true},
		{L: 8, W: 5, seed: 67, hexPlus: true, random: true, ties: true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("L%d_W%d_s%d_f%d_plus%t_rand%t_p%d",
			c.L, c.W, c.seed, c.faults, c.hexPlus, c.random, c.pulses)
		if c.linkTimers {
			name += "_link"
		}
		if c.cut > 0 {
			name += fmt.Sprintf("_cut%d", c.cut)
		}
		if c.ties {
			name += "_ties"
		}
		t.Run(name, c.checkArms)
	}
}

// FuzzEngineDifferential is the engine oracle: the ring queue against
// the forced 4-ary heap, batched against unbatched dispatch, and dead-event
// retirement against executing every event must produce bit-identical
// Results on arbitrary configurations. Any divergence is an event-ordering
// bug in one of the queues, a dispatch-path bug, or an event retired
// whose outcome was not decided.
func FuzzEngineDifferential(f *testing.F) {
	f.Add(uint64(1), uint(15), uint(8), uint(0), false, false, uint(1))
	f.Add(uint64(7), uint(20), uint(12), uint(2), false, false, uint(1))
	f.Add(uint64(13), uint(18), uint(10), uint(0), true, false, uint(1))
	f.Add(uint64(19), uint(10), uint(8), uint(0), false, true, uint(1))
	f.Add(uint64(23), uint(14), uint(8), uint(0), false, false, uint(3))
	f.Add(uint64(31), uint(25), uint(20), uint(4), true, true, uint(2))
	f.Add(uint64(29), uint(8), uint(3), uint(0), false, false, uint(1))
	f.Add(uint64(37), uint(292), uint(8), uint(0), false, true, uint(3))
	f.Add(uint64(43), uint(20), uint(276), uint(2), false, false, uint(1))
	f.Add(uint64(47), uint(256), uint(514), uint(2), true, true, uint(2))
	f.Add(uint64(59), uint(6), uint(5), uint(260), false, true, uint(1))
	f.Fuzz(func(t *testing.T, seed uint64, l, w, faults uint, hexPlus, random bool, pulses uint) {
		c := engineCase{
			L:      int(l%40) + 2,
			W:      int(w%24) + 3,
			seed:   seed,
			faults: int(faults % 5),
			behav:  fault.Byzantine,
			random: random, hexPlus: hexPlus,
			pulses: int(pulses%3) + 1,
		}
		if seed%2 == 1 {
			c.behav = fault.FailSilent
		}
		// Bits 8 and up of l, w and faults pick link timers, a horizon cut
		// and tied event times. Every committed corpus input is below 256
		// in all three, so it still runs the configuration it was saved
		// for, while mutation reaches the new dimensions.
		c.linkTimers = (l>>8)&1 == 1
		c.cut = int((w >> 8) % 3)
		c.ties = (faults>>8)&1 == 1
		if hexPlus && c.W < 5 {
			c.W = 5 // HEX+ needs W >= 5
		}
		c.checkArms(t)
	})
}
