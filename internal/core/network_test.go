package core

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
)

// runPulse is a test helper: one pulse with zero offsets unless overridden.
func runPulse(t *testing.T, h *grid.Hex, mod func(*Config)) *Result {
	t.Helper()
	cfg := Config{
		Graph:    h.Graph,
		Params:   DefaultParams(),
		Delay:    delay.Uniform{Bounds: delay.Paper},
		Faults:   fault.NewPlan(h.NumNodes()),
		Schedule: source.SinglePulse(make([]sim.Time, h.W)),
		Seed:     1,
	}
	if mod != nil {
		mod(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFaultFreeEveryNodeTriggersOnce(t *testing.T) {
	h := grid.MustHex(20, 12)
	res := runPulse(t, h, nil)
	for n, ts := range res.Triggers {
		if len(ts) != 1 {
			t.Fatalf("node %d triggered %d times", n, len(ts))
		}
	}
}

func TestLemma5TriggerWindowsFaultFree(t *testing.T) {
	// All correct nodes of layer ℓ trigger within [tmin+ℓd−, tmax+ℓd+].
	h := grid.MustHex(25, 10)
	b := delay.Paper
	offsets := source.Offsets(source.UniformDPlus, h.W, b, sim.NewRNG(3))
	res := runPulse(t, h, func(c *Config) { c.Schedule = source.SinglePulse(offsets) })
	tmin, tmax := offsets[0], offsets[0]
	for _, o := range offsets {
		tmin, tmax = sim.MinTime(tmin, o), sim.MaxOf(tmax, o)
	}
	for n, ts := range res.Triggers {
		l := sim.Time(h.LayerOf(n))
		lo, hi := tmin+l*b.Min, tmax+l*b.Max
		if ts[0] < lo || ts[0] > hi {
			t.Fatalf("node %d (layer %d) triggered at %v outside [%v, %v]", n, l, ts[0], lo, hi)
		}
	}
}

func TestFixedDelayWaveIsExact(t *testing.T) {
	// With zero offsets and all delays d, layer ℓ triggers exactly at ℓ·d.
	h := grid.MustHex(10, 6)
	d := sim.Time(8000)
	res := runPulse(t, h, func(c *Config) { c.Delay = delay.Fixed{D: d} })
	for n, ts := range res.Triggers {
		want := sim.Time(h.LayerOf(n)) * d
		if ts[0] != want {
			t.Fatalf("node %d triggered at %v, want %v", n, ts[0], want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	h := grid.MustHex(15, 8)
	a := runPulse(t, h, func(c *Config) { c.Seed = 77 })
	b := runPulse(t, h, func(c *Config) { c.Seed = 77 })
	for n := range a.Triggers {
		if len(a.Triggers[n]) != len(b.Triggers[n]) {
			t.Fatalf("trigger counts differ at node %d", n)
		}
		for i := range a.Triggers[n] {
			if a.Triggers[n][i] != b.Triggers[n][i] {
				t.Fatalf("node %d trigger %d: %v vs %v", n, i, a.Triggers[n][i], b.Triggers[n][i])
			}
		}
	}
	c := runPulse(t, h, func(c *Config) { c.Seed = 78 })
	diff := false
	for n := range a.Triggers {
		if a.Triggers[n][0] != c.Triggers[n][0] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical waves")
	}
}

func TestInterLayerLowerBound(t *testing.T) {
	// Fault-free, every node is triggered by a message from the layer
	// below, so it fires at least d− after both… at least one of its lower
	// neighbors. Check the minimum over the later lower neighbor ≥ d− holds
	// for zero offsets (scenario (i); cf. Table 1's σ̂min ≈ d−).
	h := grid.MustHex(20, 10)
	b := delay.Paper
	res := runPulse(t, h, nil)
	for l := 1; l <= h.L; l++ {
		for _, n := range h.Layer(l) {
			ll, _ := h.LowerLeftNeighbor(n)
			lr, _ := h.LowerRightNeighbor(n)
			early := sim.MinTime(res.Triggers[ll][0], res.Triggers[lr][0])
			if res.Triggers[n][0] < early+b.Min {
				t.Fatalf("node %d fired %v after earliest lower neighbor %v (< d−)",
					n, res.Triggers[n][0]-early, early)
			}
		}
	}
}

func TestFailSilentNodeNeverFires(t *testing.T) {
	h := grid.MustHex(10, 8)
	bad := h.NodeID(3, 4)
	res := runPulse(t, h, func(c *Config) {
		c.Faults.SetBehavior(bad, fault.FailSilent)
	})
	if len(res.Triggers[bad]) != 0 {
		t.Error("fail-silent node recorded triggers")
	}
	// All other nodes still fire exactly once (Condition 1 holds for f=1).
	for n, ts := range res.Triggers {
		if n == bad {
			continue
		}
		if len(ts) != 1 {
			t.Fatalf("node %d triggered %d times with one fail-silent node", n, len(ts))
		}
	}
}

func TestTwoAdjacentCrashesKillCommonUpperNeighbor(t *testing.T) {
	// Crashing (ℓ,i) and (ℓ,i+1) leaves (ℓ+1,i) with no satisfiable guard:
	// its lower-left and lower-right are dead, so only non-adjacent L and R
	// remain (Section 3.2: "two adjacent crash failures on some layer just
	// effectively crash their common neighbor in the layer above").
	h := grid.MustHex(8, 8)
	res := runPulse(t, h, func(c *Config) {
		c.Faults.SetBehavior(h.NodeID(3, 4), fault.FailSilent)
		c.Faults.SetBehavior(h.NodeID(3, 5), fault.FailSilent)
	})
	victim := h.NodeID(4, 4)
	if len(res.Triggers[victim]) != 0 {
		t.Errorf("common upper neighbor fired despite dead lower pair")
	}
	// Its siblings with one live lower neighbor must still fire.
	for _, n := range []int{h.NodeID(4, 3), h.NodeID(4, 5)} {
		if len(res.Triggers[n]) != 1 {
			t.Errorf("node %d triggered %d times", n, len(res.Triggers[n]))
		}
	}
}

func TestByzantineStuck1PairFiresVictimImmediately(t *testing.T) {
	// Violating Condition 1 on purpose: two Byzantine in-neighbors driving
	// adjacent inputs with constant 1 make the victim fire at time 0 — the
	// "false pulse" the paper's fault model warns about.
	h := grid.MustHex(6, 8)
	victim := h.NodeID(2, 3)
	ll, _ := h.LowerLeftNeighbor(victim)
	lr, _ := h.LowerRightNeighbor(victim)
	res := runPulse(t, h, func(c *Config) {
		c.Faults.SetBehavior(ll, fault.Byzantine)
		c.Faults.SetBehavior(lr, fault.Byzantine)
		c.Faults.SetLink(ll, victim, fault.LinkStuck1)
		c.Faults.SetLink(lr, victim, fault.LinkStuck1)
		// Delay the real pulse so the false pulse is unambiguous.
		off := make([]sim.Time, h.W)
		for i := range off {
			off[i] = 500 * sim.Nanosecond
		}
		c.Schedule = source.SinglePulse(off)
	})
	if len(res.Triggers[victim]) == 0 || res.Triggers[victim][0] != 0 {
		t.Errorf("victim triggers: %v, want immediate false pulse at 0", res.Triggers[victim])
	}
}

func TestSingleStuck1InputIsHarmlessAlone(t *testing.T) {
	// One Byzantine neighbor with a constant-1 output cannot fire a node by
	// itself: the guard needs an adjacent pair.
	h := grid.MustHex(6, 8)
	victim := h.NodeID(2, 3)
	ll, _ := h.LowerLeftNeighbor(victim)
	res := runPulse(t, h, func(c *Config) {
		c.Faults.SetBehavior(ll, fault.Byzantine)
		for _, out := range h.Out(ll) {
			c.Faults.SetLink(ll, out.To, fault.LinkStuck1)
		}
		off := make([]sim.Time, h.W)
		for i := range off {
			off[i] = 500 * sim.Nanosecond
		}
		c.Schedule = source.SinglePulse(off)
	})
	ts := res.Triggers[victim]
	if len(ts) == 0 {
		t.Fatal("victim never triggered")
	}
	// Must wait for the real wave (well after 500ns), not fire spuriously.
	if ts[0] < 500*sim.Nanosecond {
		t.Errorf("victim fired at %v before the real pulse", ts[0])
	}
}

func TestByzantineStuck1AcceleratesButOncePerPulse(t *testing.T) {
	// A stuck-1 input can make a node fire earlier (one real message
	// suffices), but with long sleeps it still fires only once.
	h := grid.MustHex(6, 8)
	victim := h.NodeID(2, 3)
	ll, _ := h.LowerLeftNeighbor(victim)
	res := runPulse(t, h, func(c *Config) {
		c.Faults.SetBehavior(ll, fault.Byzantine)
		c.Faults.SetLink(ll, victim, fault.LinkStuck1)
	})
	if len(res.Triggers[victim]) != 1 {
		t.Errorf("victim triggered %d times", len(res.Triggers[victim]))
	}
}

func TestLinkTimersForgetLoneMessages(t *testing.T) {
	// A single memorized message expires after T+link; if the matching
	// neighbor message arrives later than that, the node must not fire.
	h := grid.MustHex(1, 4)
	b := delay.Bounds{Min: 10 * sim.Nanosecond, Max: 10 * sim.Nanosecond}
	mkCfg := func(withTimers bool) Config {
		p := Params{
			Bounds:    b,
			TSleepMin: sim.Millisecond,
			TSleepMax: sim.Millisecond,
		}
		if withTimers {
			p.TLinkMin, p.TLinkMax = 20*sim.Nanosecond, 20*sim.Nanosecond
		}
		pl := delay.NewPerLink(delay.Fixed{D: 300 * sim.Nanosecond})
		// (0,0) → (1,0) arrives at 10ns; (0,1) → (1,0) arrives at 100ns.
		pl.Set(h.NodeID(0, 0), h.NodeID(1, 0), 10*sim.Nanosecond)
		pl.Set(h.NodeID(0, 1), h.NodeID(1, 0), 100*sim.Nanosecond)
		return Config{
			Graph:    h.Graph,
			Params:   p,
			Delay:    pl,
			Faults:   fault.NewPlan(h.NumNodes()),
			Schedule: source.SinglePulse(make([]sim.Time, h.W)),
			Seed:     1,
			Horizon:  250 * sim.Nanosecond,
		}
	}

	// Without timers the lower-left flag persists: fire at 100ns.
	res, err := Run(mkCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	n := h.NodeID(1, 0)
	if len(res.Triggers[n]) != 1 || res.Triggers[n][0] != 100*sim.Nanosecond {
		t.Fatalf("without timers: triggers %v, want [100ns]", res.Triggers[n])
	}

	// With a 20ns timer the 10ns message is forgotten at 30ns; at 100ns
	// only one flag is set → no fire within the horizon.
	res, err = Run(mkCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triggers[n]) != 0 {
		t.Fatalf("with timers: triggers %v, want none", res.Triggers[n])
	}
}

func TestGuardAnyTwoVersusAdjacent(t *testing.T) {
	// A node receiving only its Left and Right neighbors' messages fires
	// under the any-two ablation guard but not under Algorithm 1's guard.
	h := grid.MustHex(2, 5)
	victim := h.NodeID(1, 2)
	run := func(guard GuardMode) *Result {
		cfg := Config{
			Graph: h.Graph,
			Params: Params{
				Bounds:    delay.Paper,
				TSleepMin: sim.Millisecond,
				TSleepMax: sim.Millisecond,
				Guard:     guard,
			},
			Delay:    delay.Fixed{D: 8 * sim.Nanosecond},
			Faults:   fault.NewPlan(h.NumNodes()),
			Schedule: source.SinglePulse(make([]sim.Time, h.W)),
			Seed:     1,
		}
		// Cut the victim's lower inputs.
		ll, _ := h.LowerLeftNeighbor(victim)
		lr, _ := h.LowerRightNeighbor(victim)
		cfg.Faults.SetLink(ll, victim, fault.LinkStuck0)
		cfg.Faults.SetLink(lr, victim, fault.LinkStuck0)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got := run(GuardAdjacent).Triggers[victim]; len(got) != 0 {
		t.Errorf("adjacent guard fired on non-adjacent inputs: %v", got)
	}
	if got := run(GuardAnyTwo).Triggers[victim]; len(got) != 1 {
		t.Errorf("any-two guard did not fire: %v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	h := grid.MustHex(2, 4)
	base := Config{
		Graph:    h.Graph,
		Params:   DefaultParams(),
		Delay:    delay.Fixed{D: 8000},
		Schedule: source.SinglePulse(make([]sim.Time, 4)),
	}
	bad := base
	bad.Graph = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil graph accepted")
	}
	bad = base
	bad.Delay = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil delay accepted")
	}
	bad = base
	bad.Schedule = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil schedule accepted")
	}
	bad = base
	bad.Schedule = source.SinglePulse(make([]sim.Time, 3))
	if _, err := Run(bad); err == nil {
		t.Error("schedule width mismatch accepted")
	}
	bad = base
	bad.Params.TSleepMin = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero sleep accepted")
	}
	bad = base
	bad.Params.TLinkMin = 10
	bad.Params.TLinkMax = 5
	if _, err := Run(bad); err == nil {
		t.Error("inverted link timer bounds accepted")
	}
}

func TestFaultySourceColumn(t *testing.T) {
	// A fail-silent clock source: its two layer-1 out-neighbors must still
	// be triggered via their intra-layer neighbors.
	h := grid.MustHex(5, 8)
	bad := h.NodeID(0, 3)
	res := runPulse(t, h, func(c *Config) {
		c.Faults.SetBehavior(bad, fault.FailSilent)
	})
	if len(res.Triggers[bad]) != 0 {
		t.Error("fail-silent source fired")
	}
	for n, ts := range res.Triggers {
		if n == bad {
			continue
		}
		if len(ts) != 1 {
			t.Fatalf("node %d triggered %d times", n, len(ts))
		}
	}
}

func TestMultiPulseCleanSeparation(t *testing.T) {
	// With Condition 2-sized separation and proper timeouts, every node
	// fires exactly once per pulse.
	h := grid.MustHex(10, 6)
	b := delay.Paper
	pulses := 4
	sep := 300 * sim.Nanosecond
	sched := source.NewSchedule(source.Zero, h.W, pulses, b, sep, nil)
	res, err := Run(Config{
		Graph: h.Graph,
		Params: Params{
			Bounds:    b,
			TLinkMin:  30 * sim.Nanosecond,
			TLinkMax:  32 * sim.Nanosecond,
			TSleepMin: 80 * sim.Nanosecond,
			TSleepMax: 84 * sim.Nanosecond,
		},
		Delay:    delay.Uniform{Bounds: b},
		Faults:   fault.NewPlan(h.NumNodes()),
		Schedule: sched,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n, ts := range res.Triggers {
		if len(ts) != pulses {
			t.Fatalf("node %d triggered %d times, want %d", n, len(ts), pulses)
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("node %d triggers not increasing", n)
			}
		}
	}
}

func TestRandomInitEventuallyForwardsPulses(t *testing.T) {
	// From arbitrary initial states, later pulses are forwarded exactly
	// once by every node (Theorem 2's conclusion, checked end to end).
	h := grid.MustHex(8, 6)
	b := delay.Paper
	sep := 400 * sim.Nanosecond
	sched := source.NewSchedule(source.UniformDPlus, h.W, 6, b, sep, sim.NewRNG(11))
	res, err := Run(Config{
		Graph: h.Graph,
		Params: Params{
			Bounds:    b,
			TLinkMin:  30 * sim.Nanosecond,
			TLinkMax:  32 * sim.Nanosecond,
			TSleepMin: 80 * sim.Nanosecond,
			TSleepMax: 84 * sim.Nanosecond,
		},
		Delay:      delay.Uniform{Bounds: b},
		Faults:     fault.NewPlan(h.NumNodes()),
		Schedule:   sched,
		RandomInit: true,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each node must have triggered at least once per late pulse window:
	// count triggers after the 3rd pulse's start.
	cut := sched.PulseMin(3, nil)
	for n, ts := range res.Triggers {
		late := 0
		for _, v := range ts {
			if v >= cut {
				late++
			}
		}
		if late < 3 {
			t.Fatalf("node %d forwarded only %d of the last 3 pulses", n, late)
		}
	}
}

func TestDoublingTopologyPulse(t *testing.T) {
	d, err := grid.NewDoubling(4, []bool{true, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Graph:    d.Graph,
		Params:   DefaultParams(),
		Delay:    delay.Uniform{Bounds: delay.Paper},
		Faults:   fault.NewPlan(d.NumNodes()),
		Schedule: source.SinglePulse(make([]sim.Time, d.Widths[0])),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n, ts := range res.Triggers {
		if len(ts) != 1 {
			t.Fatalf("doubling node %d triggered %d times", n, len(ts))
		}
	}
}

func TestEventsCounted(t *testing.T) {
	h := grid.MustHex(5, 5)
	res := runPulse(t, h, nil)
	if res.Events == 0 {
		t.Error("no events counted")
	}
	if res.Horizon == 0 {
		t.Error("no horizon derived")
	}
}

// TestDeadEventsRetired pins what dead-event retirement and the firing
// level save on a fault-free pulse. Its events are one fire per source, one
// time-0 guard check, four deliveries and one wake per forwarding node. At
// the event level the engine executes only the source fires and the
// deliveries that are live when sent, on the ring queue and on the 4-ary
// heap alike; at the firing level the ring sweep settles the pulse without
// the engine, which executes nothing. Result.Events counts all of them
// either way. A traced run, which takes the event level, retires only the
// time-0 checks.
func TestDeadEventsRetired(t *testing.T) {
	for _, c := range []struct {
		L, W             int
		events, executed uint64
	}{
		{20, 12, 1452, 732},
		{300, 200, 360200, 180200},
	} {
		if testing.Short() && c.L > 20 {
			continue
		}
		h := grid.MustHex(c.L, c.W)
		checks := uint64(c.L * c.W)
		for _, level := range []string{"event", "heap", "traced", "firing"} {
			cfg := Config{
				Graph:    h.Graph,
				Params:   DefaultParams(),
				Delay:    delay.Uniform{Bounds: delay.Paper},
				Faults:   fault.NewPlan(h.NumNodes()),
				Schedule: source.SinglePulse(make([]sim.Time, h.W)),
				Seed:     1,
			}
			a := NewArena()
			executed := c.executed
			switch level {
			case "event":
				a.nw.eventLevel = true
			case "heap":
				a.nw.heapQueue = true
			case "traced":
				cfg.Trace = &eventLog{}
				executed = c.events - checks
			case "firing":
				executed = 0
			}
			res, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != c.events || a.nw.eng.Executed != executed {
				t.Errorf("L%d_W%d %s level: Events %d, executed %d; want %d, %d",
					c.L, c.W, level, res.Events, a.nw.eng.Executed, c.events, executed)
			}
			if a.nw.firing != (level == "firing") {
				t.Errorf("L%d_W%d %s level: firing = %t", c.L, c.W, level, a.nw.firing)
			}
		}
	}
}

func TestGuardModeString(t *testing.T) {
	if GuardAdjacent.String() != "adjacent-pair" || GuardAnyTwo.String() != "any-two" {
		t.Error("guard names wrong")
	}
}

// TestMonotonicityInSourceDelay is a causality property: with fixed link
// delays, delaying one clock source can only delay (never advance) any
// node's triggering time.
func TestMonotonicityInSourceDelay(t *testing.T) {
	h := grid.MustHex(10, 7)
	run := func(extra sim.Time) *Result {
		off := make([]sim.Time, h.W)
		off[3] = extra
		return runPulse(t, h, func(c *Config) {
			c.Delay = delay.Fixed{D: 8000}
			c.Schedule = source.SinglePulse(off)
		})
	}
	base := run(0)
	for _, extra := range []sim.Time{1000, 5000, 20000} {
		delayed := run(extra)
		for n := range base.Triggers {
			if delayed.Triggers[n][0] < base.Triggers[n][0] {
				t.Fatalf("delaying source advanced node %d: %v < %v",
					n, delayed.Triggers[n][0], base.Triggers[n][0])
			}
		}
	}
}

// TestMonotonicityInLinkDelay: slowing a single link never advances anyone.
func TestMonotonicityInLinkDelay(t *testing.T) {
	h := grid.MustHex(8, 6)
	from, to := h.NodeID(2, 2), h.NodeID(3, 2)
	run := func(d sim.Time) *Result {
		pl := delay.NewPerLink(delay.Fixed{D: 8000})
		pl.Set(from, to, d)
		return runPulse(t, h, func(c *Config) { c.Delay = pl })
	}
	base := run(8000)
	slow := run(12000)
	for n := range base.Triggers {
		if slow.Triggers[n][0] < base.Triggers[n][0] {
			t.Fatalf("slowing a link advanced node %d", n)
		}
	}
}

func TestExplicitHorizonCutsWave(t *testing.T) {
	h := grid.MustHex(20, 6)
	res := runPulse(t, h, func(c *Config) {
		c.Delay = delay.Fixed{D: 8000}
		c.Horizon = 10 * 8000 // wave reaches layer 10 only
	})
	for n, ts := range res.Triggers {
		l := h.LayerOf(n)
		if l <= 10 && len(ts) != 1 {
			t.Fatalf("node %d (layer %d) inside horizon did not trigger", n, l)
		}
		if l > 10 && len(ts) != 0 {
			t.Fatalf("node %d (layer %d) beyond horizon triggered", n, l)
		}
	}
}

// TestStuck1LinkFault tests a link-level (not node-level) stuck-at-1 fault:
// the receiver's input is permanently high although the sender is correct.
func TestStuck1LinkFault(t *testing.T) {
	h := grid.MustHex(6, 6)
	victim := h.NodeID(3, 3)
	ll, _ := h.LowerLeftNeighbor(victim)
	res := runPulse(t, h, func(c *Config) {
		c.Faults.SetLink(ll, victim, fault.LinkStuck1)
	})
	// The victim can fire on its lower-right message alone (LL stuck-1 +
	// LR forms the central pair) — earlier than or equal to the fault-free
	// central trigger, and exactly once.
	if len(res.Triggers[victim]) != 1 {
		t.Fatalf("victim fired %d times", len(res.Triggers[victim]))
	}
	lr, _ := h.LowerRightNeighbor(victim)
	if res.Triggers[victim][0] > res.Triggers[lr][0]+delay.Paper.Max {
		t.Error("stuck-1 input did not accelerate the victim")
	}
}

// TestStuck0LinkFault: a dead link from a correct sender; the receiver
// still fires via its other guard pairs.
func TestStuck0LinkFault(t *testing.T) {
	h := grid.MustHex(6, 6)
	victim := h.NodeID(3, 3)
	ll, _ := h.LowerLeftNeighbor(victim)
	res := runPulse(t, h, func(c *Config) {
		c.Faults.SetLink(ll, victim, fault.LinkStuck0)
	})
	if len(res.Triggers[victim]) != 1 {
		t.Fatalf("victim fired %d times with one dead in-link", len(res.Triggers[victim]))
	}
	// It needed the (lower-right, right) pair, so it fires after its right
	// neighbor's message could arrive.
	r, _ := h.RightNeighbor(victim)
	if res.Triggers[victim][0] < res.Triggers[r][0]+delay.Paper.Min {
		t.Error("victim fired before right-neighbor support could arrive")
	}
}

// TestStuck1NeverDelaysAnyone: adding a stuck-at-1 input is pure "help" —
// with flags that only persist (no timers, long sleeps), no node can fire
// later than without it.
func TestStuck1NeverDelaysAnyone(t *testing.T) {
	h := grid.MustHex(8, 7)
	run := func(withStuck bool) *Result {
		return runPulse(t, h, func(c *Config) {
			c.Delay = delay.Fixed{D: 8000}
			if withStuck {
				from := h.NodeID(3, 3)
				to := h.NodeID(4, 3)
				c.Faults.SetLink(from, to, fault.LinkStuck1)
			}
		})
	}
	base, helped := run(false), run(true)
	for n := range base.Triggers {
		if helped.Triggers[n][0] > base.Triggers[n][0] {
			t.Fatalf("stuck-1 link delayed node %d: %v > %v",
				n, helped.Triggers[n][0], base.Triggers[n][0])
		}
	}
}

func TestMinimalGrids(t *testing.T) {
	// The smallest supported grids run end to end.
	for _, dims := range []struct{ L, W int }{{1, 3}, {1, 4}, {2, 3}} {
		h := grid.MustHex(dims.L, dims.W)
		res := runPulse(t, h, nil)
		for n, ts := range res.Triggers {
			if len(ts) != 1 {
				t.Fatalf("grid %dx%d: node %d fired %d times", dims.L, dims.W, n, len(ts))
			}
		}
	}
}

func TestWidth3WrapSemantics(t *testing.T) {
	// W=3 is the degenerate width where a node's left and right neighbors
	// are the other two nodes of its layer; the wave must still be exact
	// under fixed delays.
	h := grid.MustHex(5, 3)
	d := sim.Time(8000)
	res := runPulse(t, h, func(c *Config) { c.Delay = delay.Fixed{D: d} })
	for n, ts := range res.Triggers {
		if want := sim.Time(h.LayerOf(n)) * d; ts[0] != want {
			t.Fatalf("W=3 node %d at %v, want %v", n, ts[0], want)
		}
	}
}
