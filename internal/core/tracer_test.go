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

// tracedConfig builds a run that exercises every tracer callback: link
// timers on (flag expiries), multiple pulses (sleep/wake cycles), a
// Byzantine fault and random initial states.
func tracedConfig(t *testing.T, rec Tracer) Config {
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

// TestTracerIndependentOfQueue pins that the recorded event stream is
// bit-identical whether events flow through the ring queue or the 4-ary
// heap: tracer callbacks may never observe the queue's structure.
func TestTracerIndependentOfQueue(t *testing.T) {
	run := func(heap bool) (*eventLog, *Result) {
		rec := &eventLog{}
		// A fresh arena per run keeps the two queues' storage independent.
		a := NewArena()
		a.nw.heapQueue = heap
		res, err := a.Run(tracedConfig(t, rec))
		if err != nil {
			t.Fatal(err)
		}
		return rec, res
	}

	ring, resR := run(false)
	heap, resH := run(true)

	if len(ring.events) == 0 {
		t.Fatal("no events traced")
	}
	if len(ring.events) != len(heap.events) {
		t.Fatalf("event counts differ: ring %d vs heap %d", len(ring.events), len(heap.events))
	}
	for i := range ring.events {
		if ring.events[i] != heap.events[i] {
			t.Fatalf("event %d differs:\nring: %+v\nheap: %+v", i, ring.events[i], heap.events[i])
		}
	}
	if resR.Events != resH.Events {
		t.Fatalf("executed event counts differ: %d vs %d", resR.Events, resH.Events)
	}
	if !reflect.DeepEqual(resR.Triggers, resH.Triggers) {
		t.Fatal("trigger histories differ between the ring queue and the heap")
	}
}
