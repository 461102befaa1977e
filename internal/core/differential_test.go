package core

import (
	"fmt"
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
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
// offsets, random initial states, and multi-pulse schedules, i.e. every
// code path that draws randomness or schedules events.
type engineCase struct {
	L, W    int
	seed    uint64
	hexPlus bool
	faults  int
	behav   fault.Behavior
	random  bool
	pulses  int
}

// engineArm is one way of executing a run: the production ring queue
// with batched dispatch, or a structurally different queue or dispatch
// path that must reproduce it bit for bit.
type engineArm struct {
	name          string
	heap, noBatch bool
}

// engineArms lists the arms compared against the production arm.
var engineArms = []engineArm{
	{name: "heap", heap: true},
	{name: "unbatched", noBatch: true},
}

// run executes the case on the given arm. The arm toggles are package
// globals, so callers must not run arms of different cases concurrently.
func (c engineCase) run(t *testing.T, arm engineArm) *Result {
	t.Helper()
	forceHeapQueue, noBatchDispatch = arm.heap, arm.noBatch
	defer func() { forceHeapQueue, noBatchDispatch = false, false }()
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
	sched := source.SinglePulse(source.Offsets(source.UniformDPlus, h.W, b,
		sim.NewRNG(sim.DeriveSeed(c.seed, "offsets"))))
	if c.pulses > 1 {
		sched = source.NewSchedule(source.UniformDPlus, h.W, c.pulses, b, 0,
			sim.NewRNG(sim.DeriveSeed(c.seed, "offsets")))
	}
	res, err := Run(Config{
		Graph:      h.Graph,
		Params:     DefaultParams(),
		Delay:      delay.Uniform{Bounds: b},
		Faults:     plan,
		Schedule:   sched,
		RandomInit: c.random,
		Seed:       c.seed,
	})
	if err != nil {
		t.Fatalf("%s arm: %v", arm.name, err)
	}
	return res
}

// checkArms runs c on the production arm and on every engineArms entry and
// requires bit-identical Results.
func (c engineCase) checkArms(t *testing.T) {
	t.Helper()
	want := c.run(t, engineArm{name: "ring"})
	for _, arm := range engineArms {
		sameResult(t, arm.name, want, c.run(t, arm))
	}
}

// TestEngineArmsMatch pins that the ring queue and batched dispatch
// are invisible in the results: the forced 4-ary heap and one-at-a-time
// dispatch reproduce every Result bit for bit, across grids, topologies,
// fault plans, initial states, and schedules.
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
	}
	for _, c := range cases {
		name := fmt.Sprintf("L%d_W%d_s%d_f%d_plus%t_rand%t_p%d",
			c.L, c.W, c.seed, c.faults, c.hexPlus, c.random, c.pulses)
		t.Run(name, c.checkArms)
	}
}

// FuzzEngineDifferential is the engine oracle: the ring queue against
// the forced 4-ary heap (forceHeapQueue), and batched against unbatched
// dispatch (noBatchDispatch), must produce bit-identical Results on
// arbitrary configurations. Any divergence is an event-ordering bug in one
// of the queues or a dispatch-path bug.
func FuzzEngineDifferential(f *testing.F) {
	f.Add(uint64(1), uint(15), uint(8), uint(0), false, false, uint(1))
	f.Add(uint64(7), uint(20), uint(12), uint(2), false, false, uint(1))
	f.Add(uint64(13), uint(18), uint(10), uint(0), true, false, uint(1))
	f.Add(uint64(19), uint(10), uint(8), uint(0), false, true, uint(1))
	f.Add(uint64(23), uint(14), uint(8), uint(0), false, false, uint(3))
	f.Add(uint64(31), uint(25), uint(20), uint(4), true, true, uint(2))
	f.Add(uint64(29), uint(8), uint(3), uint(0), false, false, uint(1))
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
		if hexPlus && c.W < 5 {
			c.W = 5 // HEX+ needs W >= 5
		}
		c.checkArms(t)
	})
}
