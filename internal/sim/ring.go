package sim

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// The engine's event queue: a near ring of tick slots and a far lane.
//
// The simulation workload mixes dense near-term events — link delays in
// [d−, d+], link timers in [T−, T+] — with sparse far timers: sleep timers
// a thousand link delays out, layer-0 schedules, MaxTime sentinels. A
// ringQueue files every event once, by its tick (at >> shift), against a
// cursor cur, the tick of the earliest pending event:
//
//   - run holds the events of tick cur, sorted by (at, seq) and consumed
//     from head. Only these few events are ever sorted.
//   - the near ring holds ticks cur+1 .. cur+ringSlots−1, one unsorted
//     slot per tick, each a list threaded through one shared node pool
//     with a free list: storage follows what is pending, not each slot's
//     past peak. The ring spans at least twice the MaxEventDelta the tick
//     is sized for (tickShiftFor), so every link delay and timer lands in
//     it.
//   - the far lane holds everything beyond the ring: a FIFO while far
//     events arrive in (at, seq) order, as sleep timers of one duration
//     do, and the 4-ary heap for any that arrive out of order.
//
// Nothing cascades: when run drains, settle moves the events of the
// smallest of the ring's next occupied tick, the FIFO's head and the
// heap's top — from every tier that holds some — into run.
//
// Invariants: (Q1) no pending event has a tick below cur, and the events
// of tick cur are exactly run[head:], sorted; (Q2) every ring event's tick
// lies in (cur, cur+ringSlots), in the slot its tick selects, and the
// occupancy bits mark exactly the non-empty slots; (Q3) every far event's
// tick lies above cur, and fifo[fhead:] is sorted. A push behind the
// cursor, possible only between horizon-limited Runs, rebuilds the ring
// around the new cursor. Events hold no pointers, so the GC never scans
// the queue's arrays.
//
// The pop order is strictly ascending (at, seq) — identical to the heap's,
// because keys are unique: filing by tick and sorting each tick by
// (at, seq) refines the same total order. The golden tests and the
// three-way differential fuzz harness in queue_fuzz_test.go pin this.

const (
	ringSlots = 1 << 12 // ticks the near ring spans
	ringMask  = ringSlots - 1
	// defaultTickShift is the log2 tick width (in picoseconds) used when
	// the engine received no SetHorizonHint: 256 ps ticks.
	defaultTickShift = 8
	// sortThreshold is the run length above which sortEvents switches from
	// insertion sort (ideal for the nearly-sorted runs the simulator
	// produces) to pdqsort.
	sortThreshold = 24
)

// ringNode is one pooled ring entry.
type ringNode struct {
	e    event
	next int32 // 1-based pool index of the slot's next node; 0 ends the list
}

// ringQueue is the engine's event queue.
type ringQueue struct {
	shift    uint  // log2 tick width in picoseconds
	cur      int64 // tick of the earliest pending event
	n        int   // pending events, every tier
	heapOnly bool  // bypass ring and FIFO: all events through far
	run      []event
	head     int
	slots    [ringSlots]int32       // 1-based pool index of each slot's first node
	occ      [ringSlots / 64]uint64 // one bit per non-empty slot
	occSum   uint64                 // bit i set when occ[i] != 0
	pool     []ringNode
	free     int32      // 1-based head of the pool's free list
	fifo     []event    // in-order far events
	fhead    int        // first unconsumed FIFO event
	far      eventQueue // out-of-order far events; every event when heapOnly
	spill    []event    // scratch for rebuild
}

// Len reports the number of pending events.
func (q *ringQueue) Len() int { return q.n }

// tickShiftFor returns the log2 tick width for a horizon hint delta: the
// narrowest tick at which the ring's slots span 2·delta, so a delay of
// delta spans 1,024 to 2,048 ticks and each tick holds only the few events
// of a wave front that share it. That is 8 ps for the paper's d+ of
// 8.197 ns. The ratio was chosen by measurement; see DESIGN.md §11.
func tickShiftFor(delta Time) uint {
	shift := uint(0)
	for int64(ringSlots)<<shift < 2*int64(delta) {
		shift++
	}
	return shift
}

// setShift installs a log2 tick width. It must be called on an empty
// queue (sizing is per run; reset keeps it).
func (q *ringQueue) setShift(shift uint) {
	if q.n != 0 {
		panic("sim: horizon hint on a non-empty queue")
	}
	q.shift = shift
	q.cur = 0
}

// push inserts e.
func (q *ringQueue) push(e event) {
	q.n++
	if q.heapOnly {
		q.far.push(e)
		return
	}
	switch t := int64(e.at) >> q.shift; {
	case t > q.cur:
		q.place(e, t)
	case t == q.cur:
		// A push into the tick being consumed: keep run sorted.
		if n := len(q.run); n == q.head || before(&q.run[n-1], &e) {
			q.run = append(q.run, e)
			return
		}
		rest := q.run[q.head:]
		i := sort.Search(len(rest), func(k int) bool { return before(&e, &rest[k]) })
		q.run = slices.Insert(q.run, q.head+i, e)
	default:
		q.rebuild(e)
	}
}

// place files e, whose tick t lies above cur, in the ring or the far lane.
func (q *ringQueue) place(e event, t int64) {
	if t-q.cur >= ringSlots {
		if n := len(q.fifo); n == q.fhead || before(&q.fifo[n-1], &e) {
			if n == cap(q.fifo) && 2*q.fhead >= n {
				// Reclaim the consumed prefix, all of it once drained,
				// rather than grow.
				q.fifo, q.fhead = q.fifo[:copy(q.fifo, q.fifo[q.fhead:])], 0
			}
			q.fifo = append(q.fifo, e)
		} else {
			q.far.push(e)
		}
		return
	}
	k := q.free
	if k != 0 {
		q.free = q.pool[k-1].next
	} else {
		q.pool = append(q.pool, ringNode{})
		k = int32(len(q.pool))
	}
	j := int(t) & ringMask
	q.pool[k-1] = ringNode{e, q.slots[j]}
	q.slots[j] = k
	q.occ[j>>6] |= 1 << (j & 63)
	q.occSum |= 1 << (j >> 6)
}

// nextRingTick returns the earliest occupied ring tick. The ring must not
// be empty.
func (q *ringQueue) nextRingTick() int64 {
	c := int(q.cur) & ringMask
	s := (c + 1) & ringMask // the slot of tick cur+1
	i := s >> 6
	word := q.occ[i] &^ (1<<(s&63) - 1)
	if word == 0 {
		i = bits.TrailingZeros64(q.occSum &^ (2<<i - 1)) // words after i
		if i == 64 {
			i = bits.TrailingZeros64(q.occSum) // wrap around
		}
		word = q.occ[i]
	}
	j := i<<6 | bits.TrailingZeros64(word)
	return q.cur + int64((j-c)&ringMask)
}

// drain appends slot j's events to dst, returns the slot's nodes to the
// free list and marks it empty.
func (q *ringQueue) drain(j int, dst []event) []event {
	last := q.slots[j]
	for k := last; k != 0; k = q.pool[k-1].next {
		dst = append(dst, q.pool[k-1].e)
		last = k
	}
	q.pool[last-1].next = q.free
	q.free = q.slots[j]
	q.slots[j] = 0
	if q.occ[j>>6] &^= 1 << (j & 63); q.occ[j>>6] == 0 {
		q.occSum &^= 1 << (j >> 6)
	}
	return dst
}

// rebuild handles a push behind the cursor. The engine never does this
// mid-run (events are scheduled at or after now, and the cursor passes
// now's tick only when a horizon-limited Run peeks beyond its horizon),
// so re-filing every run and ring event around the new cursor is off the
// hot path. Far events stay: their ticks lie above the old cursor, hence
// above the new one.
func (q *ringQueue) rebuild(e event) {
	q.spill = append(q.spill[:0], q.run[q.head:]...)
	for i, word := range q.occ {
		for ; word != 0; word &= word - 1 {
			q.spill = q.drain(i<<6|bits.TrailingZeros64(word), q.spill)
		}
	}
	q.cur = int64(e.at) >> q.shift
	q.run = append(q.run[:0], e)
	q.head = 0
	for _, ev := range q.spill {
		q.place(ev, int64(ev.at)>>q.shift)
	}
}

// settle makes run[head] the earliest pending event. The queue must not
// be empty.
func (q *ringQueue) settle() {
	if q.head < len(q.run) {
		return
	}
	q.run, q.head = q.run[:0], 0
	t, rt := int64(math.MaxInt64), int64(-1)
	if q.occSum != 0 {
		rt = q.nextRingTick()
		t = rt
	}
	if q.fhead < len(q.fifo) {
		t = min(t, int64(q.fifo[q.fhead].at)>>q.shift)
	}
	if q.far.Len() > 0 {
		t = min(t, int64(q.far.peekTime())>>q.shift)
	}
	q.cur = t
	if t == rt {
		q.run = q.drain(int(t)&ringMask, q.run)
	}
	for q.fhead < len(q.fifo) && int64(q.fifo[q.fhead].at)>>q.shift == t {
		q.run = append(q.run, q.fifo[q.fhead])
		q.fhead++
	}
	for q.far.Len() > 0 && int64(q.far.peekTime())>>q.shift == t {
		q.run = append(q.run, q.far.pop())
	}
	sortEvents(q.run)
}

// sortEvents sorts a run by (at, seq): insertion sort for short runs,
// pdqsort for long ones.
func sortEvents(run []event) {
	if len(run) > sortThreshold {
		slices.SortFunc(run, func(a, c event) int {
			if before(&a, &c) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(run); i++ {
		e := run[i]
		j := i - 1
		for j >= 0 && before(&e, &run[j]) {
			run[j+1] = run[j]
			j--
		}
		run[j+1] = e
	}
}

// peekTime returns the time of the earliest event without removing it.
func (q *ringQueue) peekTime() Time {
	if q.heapOnly {
		return q.far.peekTime()
	}
	q.settle()
	return q.run[q.head].at
}

// pop removes and returns the earliest event. It panics on an empty queue;
// callers must check Len first.
func (q *ringQueue) pop() event {
	if q.heapOnly {
		q.n--
		return q.far.pop()
	}
	q.settle()
	q.n--
	q.head++
	return q.run[q.head-1]
}

// retained reports the event slots the queue holds allocated in every
// tier, pending or not.
func (q *ringQueue) retained() int {
	return cap(q.run) + cap(q.pool) + cap(q.fifo) + cap(q.far.items) + cap(q.spill)
}

// reset empties the queue while keeping its backing arrays (run, pool,
// FIFO, far heap, spill scratch) for reuse. The tick width is retained; a
// run with a different horizon re-sizes via setShift.
func (q *ringQueue) reset() {
	q.run, q.head = q.run[:0], 0
	q.slots = [ringSlots]int32{}
	q.occ = [ringSlots / 64]uint64{}
	q.occSum = 0
	q.pool, q.free = q.pool[:0], 0
	q.fifo, q.fhead = q.fifo[:0], 0
	q.far.reset()
	q.spill = q.spill[:0]
	q.n = 0
	q.cur = 0
}
