package core

import (
	"reflect"
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
)

// tracedEvent is a local flat record of one Tracer callback; the trace
// package's Recorder cannot be used here (it imports core).
type tracedEvent struct {
	kind     string
	a, b     int
	at, arr  sim.Time
	accepted bool
	source   bool
}

// eventLog records every Tracer callback in order.
type eventLog struct{ events []tracedEvent }

func (l *eventLog) Send(from, to int, at, arrival sim.Time) {
	l.events = append(l.events, tracedEvent{kind: "send", a: from, b: to, at: at, arr: arrival})
}
func (l *eventLog) Deliver(from, to int, at sim.Time, accepted bool) {
	l.events = append(l.events, tracedEvent{kind: "deliver", a: from, b: to, at: at, accepted: accepted})
}
func (l *eventLog) FlagExpire(node, input int, at sim.Time) {
	l.events = append(l.events, tracedEvent{kind: "expire", a: node, b: input, at: at})
}
func (l *eventLog) Fire(node int, at sim.Time, source bool) {
	l.events = append(l.events, tracedEvent{kind: "fire", a: node, at: at, source: source})
}
func (l *eventLog) Sleep(node int, at sim.Time) {
	l.events = append(l.events, tracedEvent{kind: "sleep", a: node, at: at})
}
func (l *eventLog) Wake(node int, at sim.Time) {
	l.events = append(l.events, tracedEvent{kind: "wake", a: node, at: at})
}

// tracedBatchConfig builds a run that exercises every tracer callback:
// link timers on (flag expiries), multiple pulses (sleep/wake cycles), a
// Byzantine fault and random initial states.
func tracedBatchConfig(t *testing.T, rec Tracer) Config {
	t.Helper()
	h := grid.MustHex(16, 10)
	plan := fault.NewPlan(h.NumNodes())
	rngF := sim.NewRNG(sim.DeriveSeed(99, "faults"))
	placed, err := fault.PlaceRandom(h.Graph, 2, nil, rngF, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range placed {
		plan.SetBehavior(n, fault.Byzantine)
	}
	plan.RandomizeByzantine(h.Graph, rngF)

	p := DefaultParams()
	p.TLinkMin = 40 * sim.Nanosecond
	p.TLinkMax = 50 * sim.Nanosecond
	rng := sim.NewRNG(sim.DeriveSeed(99, "offsets"))
	sched := source.NewSchedule(source.UniformDPlus, h.W, 3, p.Bounds, 500*sim.Nanosecond, rng)
	return Config{
		Graph:      h.Graph,
		Params:     p,
		Delay:      delay.Uniform{Bounds: p.Bounds},
		Faults:     plan,
		Schedule:   sched,
		RandomInit: true,
		Seed:       99,
		Trace:      rec,
	}
}

// TestTracerIndependentOfBatchDispatch pins that the recorded event stream
// is bit-identical whether typed events flow through the BatchDispatcher
// fast path (popBatchTyped) or one Dispatch call each: tracer callbacks may
// never observe the dispatch strategy.
func TestTracerIndependentOfBatchDispatch(t *testing.T) {
	run := func(noBatch bool) (*eventLog, *Result) {
		rec := &eventLog{}
		// A fresh arena per run keeps the two paths' storage independent.
		a := NewArena()
		a.nw.noBatch = noBatch
		res, err := a.Run(tracedBatchConfig(t, rec))
		if err != nil {
			t.Fatal(err)
		}
		return rec, res
	}

	batched, resB := run(false)
	serial, resS := run(true)

	if len(batched.events) == 0 {
		t.Fatal("no events traced")
	}
	if len(batched.events) != len(serial.events) {
		t.Fatalf("event counts differ: batched %d vs serial %d", len(batched.events), len(serial.events))
	}
	for i := range batched.events {
		if batched.events[i] != serial.events[i] {
			t.Fatalf("event %d differs:\nbatched: %+v\nserial:  %+v", i, batched.events[i], serial.events[i])
		}
	}
	if resB.Events != resS.Events {
		t.Fatalf("executed event counts differ: %d vs %d", resB.Events, resS.Events)
	}
	if !reflect.DeepEqual(resB.Triggers, resS.Triggers) {
		t.Fatal("trigger histories differ between batched and serial dispatch")
	}
}
