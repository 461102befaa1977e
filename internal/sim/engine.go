package sim

import "fmt"

// Dispatcher handles typed events scheduled with ScheduleEvent. Using
// integer payloads instead of closures removes one heap allocation per
// event, which dominates the simulator's profile on large grids.
type Dispatcher interface {
	Dispatch(kind uint8, a, b int64)
}

// EventRec is one typed event's payload as handed to a BatchDispatcher.
type EventRec struct {
	Kind uint8
	A, B int64
}

// BatchDispatcher is an optional extension of Dispatcher: when the installed
// dispatcher implements it, Run hands every run of same-timestamp typed
// events to one DispatchBatch call instead of one Dispatch call each,
// amortizing the per-event loop overhead (queue settle, horizon compare,
// interface dispatch). The events arrive in exactly the order Dispatch would
// have seen them, so batching is invisible to the simulation.
type BatchDispatcher interface {
	Dispatcher
	DispatchBatch(at Time, evs []EventRec)
}

// maxDispatchBatch caps one DispatchBatch call, bounding the scratch buffer
// and the latency of the cancellation poll across a large same-instant
// burst (e.g. the layer-0 fires of a wide grid's zero-offset pulse).
const maxDispatchBatch = 256

// Engine is a single-threaded discrete-event simulator.
//
// Callbacks scheduled with Schedule run in nondecreasing time order, FIFO
// among equal times; typed events scheduled with ScheduleEvent interleave
// with them in the same total order. An Engine is not safe for concurrent
// use; parallelism in this repository is achieved by running many
// independent Engines (one per simulation run) across goroutines.
type Engine struct {
	now        Time
	seq        uint64
	queue      ringQueue
	stopped    bool
	interrupt  bool
	dispatcher Dispatcher
	batcher    BatchDispatcher // dispatcher's batch extension, if any
	batchOff   bool            // SetBatching(false): ignore the extension
	batch      []EventRec      // reusable same-instant batch scratch
	stopCheck  func() bool
	stopEvery  uint64
	// fns holds the closures of pending Schedule events, indexed by their
	// event's a; free lists the reusable entries.
	fns  []func()
	free []int64
	// Executed counts events processed, for instrumentation and benchmarks.
	Executed uint64
}

// NewEngine returns an engine with the clock at time 0.
func NewEngine() *Engine {
	e := &Engine{}
	e.queue.shift = defaultTickShift
	return e
}

// Reset returns the engine to its initial state — clock at 0, sequence
// counter at 0, no pending events, no stop hook, Executed zeroed — while
// keeping the event queue's backing array, so a reused engine schedules
// without reallocating. The dispatcher is kept; a run that needs a
// different one calls SetDispatcher. A reset engine is indistinguishable
// from a fresh NewEngine in every observable way, which is what lets
// arena-style reuse preserve bit-identical simulations.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.interrupt = false
	e.stopCheck = nil
	e.stopEvery = 0
	e.Executed = 0
	e.queue.reset()
	clear(e.fns)
	e.fns = e.fns[:0]
	e.free = e.free[:0]
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled, not-yet-executed events.
func (e *Engine) Pending() int { return e.queue.Len() }

// Schedule runs fn at the absolute instant at. Scheduling in the past
// (at < Now) panics: it would indicate a causality bug in the model.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	i := int64(len(e.fns))
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
		e.fns[i] = fn
	} else {
		e.fns = append(e.fns, fn)
	}
	e.queue.push(event{at: at, seq: e.seq, a: i, closure: true})
	e.seq++
}

// ScheduleAfter runs fn after the given delay from Now. Negative delays
// panic.
func (e *Engine) ScheduleAfter(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.Schedule(e.now+delay, fn)
}

// SetDispatcher installs the handler for typed events. It must be set
// before the first ScheduleEvent call. A dispatcher that also implements
// BatchDispatcher receives same-instant typed events in batches.
func (e *Engine) SetDispatcher(d Dispatcher) {
	e.dispatcher = d
	e.batcher = nil
	if !e.batchOff {
		e.batcher, _ = d.(BatchDispatcher)
	}
}

// SetBatching enables or disables the batched fast path for typed events.
// Batching is on by default whenever the dispatcher implements
// BatchDispatcher; turning it off forces one Dispatch call per event. The
// execution order is identical either way (pop order has unique (at, seq)
// keys), so the toggle exists to bisect dispatcher issues and to let tests
// pin that tracer callbacks are independent of the dispatch path. Like the
// dispatcher itself, the setting survives Reset.
func (e *Engine) SetBatching(on bool) {
	e.batchOff = !on
	e.batcher = nil
	if on {
		e.batcher, _ = e.dispatcher.(BatchDispatcher)
	}
}

// SetHorizonHint sizes the event queue's near ring for a workload whose
// frequent events are scheduled within delta of now: the tick is the
// narrowest at which the ring's 4,096 slots span 2·delta (see
// tickShiftFor), so every such event is filed in the ring and only rarer,
// longer timers take the far lane. It may only be called while no events
// are pending, typically right after Reset; the hint has no observable
// effect on execution order, only on queue cost. delta <= 0 selects the
// default sizing.
func (e *Engine) SetHorizonHint(delta Time) {
	shift := uint(defaultTickShift)
	if delta > 0 {
		shift = tickShiftFor(delta)
	}
	e.queue.setShift(shift)
}

// ScheduleEvent schedules a typed event for the engine's Dispatcher at the
// absolute instant at. It is ordered exactly like Schedule (time, then
// call order) but allocates nothing per event.
func (e *Engine) ScheduleEvent(at Time, kind uint8, a, b int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if e.dispatcher == nil {
		panic("sim: ScheduleEvent without a Dispatcher")
	}
	e.queue.push(event{at: at, seq: e.seq, kind: kind, a: a, b: b})
	e.seq++
}

// ScheduleEventKeyed schedules a typed event under a caller-supplied
// sequence key instead of the engine's internal counter. The caller owns
// uniqueness: within one run, no two events (keyed or not) may share an
// (at, seq) pair, and keyed scheduling must not be mixed with the
// auto-keyed ScheduleEvent/Schedule calls unless the caller guarantees the
// key spaces are disjoint. Execution order is ascending (at, seq) exactly
// as for auto-keyed events. Keys derived from per-node counters make the
// order depend only on each node's own history, not on the engine's
// insertion order; the golden outputs pin the order they produce.
func (e *Engine) ScheduleEventKeyed(at Time, seq uint64, kind uint8, a, b int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if e.dispatcher == nil {
		panic("sim: ScheduleEventKeyed without a Dispatcher")
	}
	e.queue.push(event{at: at, seq: seq, kind: kind, a: a, b: b})
}

// UseHeapQueue forces every event through the 4-ary heap instead of the
// near ring and far FIFO. Pop order is identical (both realize the same
// total (at, seq) order); the knob exists so differential tests can run a
// structurally different queue as an independent arm. It may only be
// toggled while no events are pending.
func (e *Engine) UseHeapQueue(on bool) {
	if e.queue.Len() != 0 {
		panic("sim: UseHeapQueue on a non-empty queue")
	}
	e.queue.heapOnly = on
}

// RetainedEventSlots reports how many event slots the queue holds
// allocated in all its tiers, pending or not. It is introspection only,
// for storage tests: nothing in a run reads it.
func (e *Engine) RetainedEventSlots() int { return e.queue.retained() }

// ScheduleEventAfter is ScheduleEvent relative to Now.
func (e *Engine) ScheduleEventAfter(delay Time, kind uint8, a, b int64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ScheduleEvent(e.now+delay, kind, a, b)
}

// Stop makes the currently executing Run return once the current event's
// callback completes.
func (e *Engine) Stop() { e.stopped = true }

// SetStopCheck installs a cancellation hook: Run polls fn once every
// `every` executed events (and once before the first event) and stops
// early when fn returns true. The poll never reorders or drops events
// before the stop point, so a run that is not cancelled remains
// bit-identical to one without a hook. every <= 0 selects a default
// granularity. fn == nil removes the hook.
func (e *Engine) SetStopCheck(every int, fn func() bool) {
	if every <= 0 {
		every = DefaultStopCheckInterval
	}
	e.stopCheck = fn
	e.stopEvery = uint64(every)
}

// DefaultStopCheckInterval is the event-count granularity of the
// SetStopCheck poll when none is given: fine enough that an abandoned
// request stops within microseconds of wall time, coarse enough that the
// hook is invisible in profiles.
const DefaultStopCheckInterval = 512

// Interrupted reports whether the most recent Run was ended by the
// SetStopCheck hook (as opposed to draining, reaching the horizon, or an
// explicit Stop).
func (e *Engine) Interrupted() bool { return e.interrupt }

// Run executes events until the queue is empty, the horizon is passed, or
// Stop is called. Events at exactly the horizon still execute. It returns
// the number of events executed by this call.
func (e *Engine) Run(horizon Time) uint64 {
	e.stopped = false
	e.interrupt = false
	var n, nextPoll uint64
	for e.queue.Len() > 0 && !e.stopped {
		if e.stopCheck != nil && n >= nextPoll {
			if e.stopCheck() {
				e.interrupt = true
				break
			}
			nextPoll = n + e.stopEvery
		}
		t := e.queue.peekTime()
		if t > horizon {
			break
		}
		if t < e.now {
			panic("sim: event queue yielded an event in the past")
		}
		if e.batcher != nil {
			e.batch, _ = e.queue.popBatchTyped(e.batch[:0], maxDispatchBatch)
			if len(e.batch) > 0 {
				e.now = t
				e.batcher.DispatchBatch(t, e.batch)
				n += uint64(len(e.batch))
				continue
			}
		}
		ev := e.queue.pop()
		e.now = ev.at
		if ev.closure {
			fn := e.fns[ev.a]
			e.fns[ev.a] = nil
			e.free = append(e.free, ev.a)
			fn()
		} else {
			e.dispatcher.Dispatch(ev.kind, ev.a, ev.b)
		}
		n++
	}
	e.Executed += n
	return n
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() uint64 { return e.Run(MaxTime) }
