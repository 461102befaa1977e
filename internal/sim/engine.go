package sim

import (
	"fmt"
	"math/bits"
)

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
// burst (e.g. the time-0 guard checks of every node).
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
	queue      calendarQueue
	stopped    bool
	interrupt  bool
	dispatcher Dispatcher
	batcher    BatchDispatcher // dispatcher's batch extension, if any
	batchOff   bool            // SetBatching(false): ignore the extension
	batch      []EventRec      // reusable same-instant batch scratch
	stopCheck  func() bool
	stopEvery  uint64
	// Executed counts events processed, for instrumentation and benchmarks.
	Executed uint64

	// Push-delta sampling for calendar bucket auto-tuning: every
	// deltaSampleMask-th push records log2(at-now) into deltaHist. The
	// histogram survives Reset and is consumed (and cleared) by the next
	// SetHorizonHint, so an arena-reused engine sizes its buckets from the
	// previous run's observed event-delta distribution. See tuneShift.
	deltaHist  [deltaHistBuckets]uint32
	deltaCount uint32
	deltaTick  uint32
}

// NewEngine returns an engine with the clock at time 0.
func NewEngine() *Engine { return &Engine{} }

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
	e.queue.push(event{at: at, seq: e.seq, fn: fn})
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

// SetHorizonHint sizes the event queue's calendar ring so that events
// scheduled within delta of now stay bucket-resident (only rarer, farther
// events take the overflow-heap path). It may only be called while no events
// are pending, typically right after Reset; the hint has no observable
// effect on execution order, only on queue cost. delta <= 0 selects the
// default sizing.
//
// The hint is an estimate derived from the caller's timing parameters; when
// the engine has observed actual push deltas (a previous run on a reused
// engine sampled them, see sampleDelta), the bucket width is auto-tuned to
// the p99 of the observed distribution instead — in either direction. A
// workload whose deltas are much narrower than the declared bound gets
// proportionally finer buckets; one whose p99 exceeds the bound (e.g.
// single-pulse runs, where the per-node sleep timers are a double-digit
// share of all pushes but far beyond the link-delay scale the hint
// declares) gets a wider window so that tail stays bucket-resident instead
// of churning through the overflow heap on every run. Only true outliers
// beyond the observed p99 take the heap path, which is built for exactly
// those.
func (e *Engine) SetHorizonHint(delta Time) {
	if delta <= 0 {
		delta = Time(int64(calBuckets) << (defaultCalShift - 1))
	}
	e.queue.setShift(e.tuneShift(shiftForDelta(delta)))
}

// Delta-histogram sampling parameters: every 16th push is measured into a
// log2 histogram; tuning activates only once enough samples exist to make
// the percentile meaningful.
const (
	deltaHistBuckets    = 48 // log2 buckets: deltas up to ~2^47 ps (≈ 1.6 days)
	deltaSampleMask     = 15 // sample 1 push in 16
	deltaTuneMinSamples = 64
)

// sampleDelta records the scheduling distance of (a sampled subset of)
// pushes. It is kept deliberately cheap — a counter increment and a masked
// branch on the fast path — because it runs on every ScheduleEvent.
func (e *Engine) sampleDelta(at Time) {
	e.deltaTick++
	if e.deltaTick&deltaSampleMask != 0 {
		return
	}
	b := bits.Len64(uint64(at - e.now))
	if b >= deltaHistBuckets {
		b = deltaHistBuckets - 1
	}
	e.deltaHist[b]++
	e.deltaCount++
}

// tuneShift reconciles the declared shift with the sampled push-delta
// histogram and clears it. It returns the declared shift unchanged while
// fewer than deltaTuneMinSamples deltas have been observed.
//
// Narrowing uses the p99 of the log2 histogram: the smallest bucket whose
// cumulative count covers 99% of the samples. Bucket b holds deltas <
// 2^b. An earlier cut at p85 looked attractive (finer buckets) but
// benchmarked slower: the 15% tail went through the overflow heap, whose
// migrate-back churn on window advance costs far more than coarser
// buckets do.
//
// Widening beyond the declared shift is gated harder, because coarser
// buckets tax every push with longer in-bucket sort runs: the p99 wanting
// a wider window is not enough — the histogram must show that ≥ 2% of all
// pushes fall beyond the declared window's span and would therefore churn
// through the overflow heap every run. Single-pulse campaign runs are the
// motivating case: their per-node sleep timers are a double-digit share
// of pushes but sit orders of magnitude past the link-delay scale the
// declared bound covers, and widening for them is worth ~30% of the run.
// Multi-pulse stabilization runs, whose sleep deltas already fit the
// declared window, keep their fine buckets: their far tail is ~0.2%,
// under the gate.
func (e *Engine) tuneShift(declared uint) uint {
	if e.deltaCount < deltaTuneMinSamples {
		return declared
	}
	target := (uint64(e.deltaCount)*99 + 99) / 100
	var cum uint64
	b := 0
	for ; b < deltaHistBuckets; b++ {
		cum += uint64(e.deltaHist[b])
		if cum >= target {
			break
		}
	}
	shift := declared
	switch tuned := shiftForDelta(Time(1) << uint(b)); {
	case tuned < shift:
		shift = tuned
	case tuned > shift:
		// Histogram bucket i holds deltas < 2^i, and a delta fits the
		// declared window iff it is under the window's span calBuckets <<
		// declared = 2^(declared+ringBits); buckets strictly above
		// declared+ringBits would spill to the overflow heap.
		var far uint64
		for i := int(declared) + ringBits + 1; i < deltaHistBuckets; i++ {
			far += uint64(e.deltaHist[i])
		}
		if far*50 >= uint64(e.deltaCount) {
			shift = tuned
		}
	}
	e.deltaHist = [deltaHistBuckets]uint32{}
	e.deltaCount = 0
	e.deltaTick = 0
	return shift
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
	e.sampleDelta(at)
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
	e.sampleDelta(at)
	e.queue.push(event{at: at, seq: seq, kind: kind, a: a, b: b})
}

// UseHeapQueue forces every event through the 4-ary overflow heap instead
// of the calendar ring. Pop order is identical (both realize the same total
// (at, seq) order); the knob exists so differential tests can run a
// structurally different queue as an independent arm. It may only be
// toggled while no events are pending.
func (e *Engine) UseHeapQueue(on bool) {
	if e.queue.Len() != 0 {
		panic("sim: UseHeapQueue on a non-empty queue")
	}
	e.queue.heapOnly = on
}

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
		if ev.fn != nil {
			ev.fn()
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
