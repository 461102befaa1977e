package sim

import (
	"math/bits"
	"slices"
	"sort"
)

// Hierarchical timing wheel (Varghese & Lauck, SOSP 1987).
//
// The simulation workload mixes dense near-term events — link delays in
// [d−, d+], link timers in [T−, T+] — with sparse far timers: sleep timers
// a thousand link delays out, layer-0 schedules, MaxTime sentinels. A
// timingWheel files every event by its tick, at >> shift, against a
// cursor cur (the tick of the earliest pending event):
//
//   - run holds the events of tick cur, sorted by (at, seq) and consumed
//     from head. Only these few events are ever sorted.
//   - level l (0 ≤ l < wheelLevels) holds one unsorted slot per aligned
//     block of 256^l ticks inside cur's aligned block of 256^(l+1) ticks,
//     for blocks after cur's own. An event lands at the level of the
//     highest byte in which its tick differs from cur, so level 0 holds one
//     bucket per tick of cur's 256-tick block, and level 3 reaches 256^4
//     ticks (34 ms at the 8 ps tick the paper's d+ selects).
//   - far, the 4-ary heap, holds events beyond cur's top-level block.
//
// A 256-bit occupancy bitmap per level finds the next non-empty slot with
// bits.TrailingZeros64. When run drains, settle moves the cursor to the
// start of the next occupied slot at the lowest non-empty level and
// re-files that slot's events relative to it (a cascade); a level-0 slot
// is copied into run and sorted. An event therefore moves at most
// wheelLevels−1 times on its way down. Every slot keeps its own array, so
// the storage a wheel retains is bounded by each slot's peak occupancy.
// When the whole wheel is empty the cursor jumps to the heap's minimum and
// pulls in its top-level block.
//
// Invariants: (W1) no pending event has a tick below cur, and the events
// of tick cur are exactly run[head:], sorted; (W2) every other event sits
// in the slot its tick selects relative to cur, or in far when no level
// reaches it; (W3) a set occupancy bit marks a non-empty slot, and every
// occupied slot lies after cur's own slot at its level. A push behind the
// cursor, possible only between horizon-limited Runs, rebuilds the wheel
// around the new cursor.
//
// Events hold no pointers (Engine.Schedule closures live in the engine's
// side table), so the slot arrays are never scanned by the GC and a
// consumed slot is reused by truncation alone.
//
// The pop order is strictly ascending (at, seq) — identical to the heap's,
// because keys are unique: filing by tick and sorting each tick by
// (at, seq) refines the same total order. The golden tests and the
// three-way differential fuzz harness in queue_fuzz_test.go pin this.

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// defaultTickShift is the log2 tick width (in picoseconds) used when
	// the engine received no SetHorizonHint: 256 ps ticks.
	defaultTickShift = 8
	// sortThreshold is the run length above which sortEvents switches from
	// insertion sort (ideal for the nearly-sorted runs the simulator
	// produces) to pdqsort.
	sortThreshold = 24
)

// timingWheel is the engine's event queue.
type timingWheel struct {
	shift    uint  // log2 tick width in picoseconds
	cur      int64 // tick of the earliest pending event
	n        int   // pending events, every tier
	heapOnly bool  // bypass the wheel: all events through far
	run      []event
	head     int
	slots    [wheelLevels][wheelSlots][]event
	occ      [wheelLevels][wheelSlots / 64]uint64
	far      eventQueue // beyond the top level; every event when heapOnly
	spill    []event    // scratch for rebuild
}

// Len reports the number of pending events.
func (w *timingWheel) Len() int { return w.n }

// tickShiftFor returns the log2 tick width for a horizon hint delta: 1/16
// of the width at which one 256-tick block would span 2·delta, so a delay
// of delta spans 4 to 8 such blocks and each tick holds only the few
// events of a wave front that share it. That is 8 ps for the paper's d+ of
// 8.197 ns. The ratio was chosen by measurement; see DESIGN.md §11.
func tickShiftFor(delta Time) uint {
	shift := uint(0)
	for int64(16*wheelSlots)<<shift < 2*int64(delta) {
		shift++
	}
	return shift
}

// setShift installs a log2 tick width. It must be called on an empty
// queue (sizing is per run; reset keeps it).
func (w *timingWheel) setShift(shift uint) {
	if w.n != 0 {
		panic("sim: horizon hint on a non-empty queue")
	}
	w.shift = shift
	w.cur = 0
}

// push inserts e.
func (w *timingWheel) push(e event) {
	w.n++
	if w.heapOnly {
		w.far.push(e)
		return
	}
	switch t := int64(e.at) >> w.shift; {
	case t > w.cur:
		w.place(e)
	case t == w.cur:
		// A push into the tick being consumed: keep run sorted.
		rest := w.run[w.head:]
		i := sort.Search(len(rest), func(k int) bool { return before(&e, &rest[k]) })
		w.run = slices.Insert(w.run, w.head+i, e)
	default:
		w.rebuild(e)
	}
}

// place files e relative to the cursor; the caller guarantees its tick is
// not below cur. Events of tick cur are appended to run unsorted, so
// callers other than push must sort run afterwards.
func (w *timingWheel) place(e event) {
	t := int64(e.at) >> w.shift
	x := uint64(t ^ w.cur)
	if x == 0 {
		w.run = append(w.run, e)
		return
	}
	l := (bits.Len64(x) - 1) / wheelBits
	if l >= wheelLevels {
		w.far.push(e)
		return
	}
	j := int(t>>(l*wheelBits)) & wheelMask
	w.slots[l][j] = append(w.slots[l][j], e)
	w.occ[l][j>>6] |= 1 << (j & 63)
}

// take moves every wheel event, run included, into spill and empties the
// wheel (far is untouched).
func (w *timingWheel) take() {
	w.spill = append(w.spill[:0], w.run[w.head:]...)
	w.run, w.head = w.run[:0], 0
	for l := range w.occ {
		for i, word := range w.occ[l] {
			for ; word != 0; word &= word - 1 {
				j := i<<6 | bits.TrailingZeros64(word)
				w.spill = append(w.spill, w.slots[l][j]...)
				w.slots[l][j] = w.slots[l][j][:0]
			}
		}
		w.occ[l] = [wheelSlots / 64]uint64{}
	}
}

// rebuild handles a push behind the cursor. The engine never does this
// mid-run (events are scheduled at or after now, and the cursor passes
// now's tick only when a horizon-limited Run peeks beyond its horizon),
// so re-filing every wheel event around the new cursor is off the hot
// path. Far events stay: they lie beyond the old cursor's top-level
// block, hence beyond the new one's.
func (w *timingWheel) rebuild(e event) {
	w.take()
	w.cur = int64(e.at) >> w.shift
	w.place(e)
	for _, ev := range w.spill {
		w.place(ev)
	}
	sortEvents(w.run)
}

// settle makes run[head] the earliest pending event. The queue must not
// be empty.
func (w *timingWheel) settle() {
	if w.head < len(w.run) {
		return
	}
	w.run, w.head = w.run[:0], 0
	for len(w.run) == 0 {
		l := 0
		for l < wheelLevels && w.occ[l] == [wheelSlots / 64]uint64{} {
			l++
		}
		if l == wheelLevels {
			// Only far events remain: jump to the earliest and pull in the
			// rest of its top-level block.
			w.cur = int64(w.far.peekTime()) >> w.shift
			for w.far.Len() > 0 && uint64(int64(w.far.peekTime())>>w.shift^w.cur) < 1<<(wheelLevels*wheelBits) {
				w.place(w.far.pop())
			}
			continue
		}
		i := 0
		for w.occ[l][i] == 0 {
			i++
		}
		j := i<<6 | bits.TrailingZeros64(w.occ[l][i])
		w.occ[l][i] &^= 1 << (j & 63)
		s := uint(l * wheelBits)
		w.cur = w.cur&^(1<<(s+wheelBits)-1) | int64(j)<<s
		if l == 0 {
			// Copy rather than swap arrays: a slot that traded its array
			// for run's would keep a tick-0 burst's capacity, and over
			// many runs every slot would.
			w.run = append(w.run, w.slots[0][j]...)
		} else {
			for _, e := range w.slots[l][j] {
				w.place(e)
			}
		}
		w.slots[l][j] = w.slots[l][j][:0]
	}
	sortEvents(w.run)
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
func (w *timingWheel) peekTime() Time {
	if w.heapOnly {
		return w.far.peekTime()
	}
	w.settle()
	return w.run[w.head].at
}

// pop removes and returns the earliest event. It panics on an empty queue;
// callers must check Len first.
func (w *timingWheel) pop() event {
	if w.heapOnly {
		w.n--
		return w.far.pop()
	}
	w.settle()
	w.n--
	w.head++
	return w.run[w.head-1]
}

// popBatchTyped pops up to max consecutive typed (non-closure) events
// sharing the earliest pending timestamp, appending their payloads to dst.
// Events at one instant share a tick and are contiguous in the sorted run,
// so the batch is a straight scan. It returns the extended slice and the
// shared timestamp; an empty batch (timestamp of a closure event) leaves
// the queue untouched.
func (w *timingWheel) popBatchTyped(dst []EventRec, max int) ([]EventRec, Time) {
	if w.heapOnly {
		// No sorted runs to scan in the heap: return an empty batch so the
		// engine falls back to one pop per event, keeping the heap arm's
		// dispatch path genuinely heap-shaped.
		return dst, w.far.peekTime()
	}
	w.settle()
	at := w.run[w.head].at
	i := w.head
	for i < len(w.run) && len(dst) < max {
		e := &w.run[i]
		if e.at != at || e.closure {
			break
		}
		dst = append(dst, EventRec{Kind: e.kind, A: e.a, B: e.b})
		i++
	}
	w.n -= i - w.head
	w.head = i
	return dst, at
}

// reset empties the queue while keeping its backing arrays (slots, run,
// far heap, spill scratch) for reuse. The tick width is retained; a run
// with a different horizon re-sizes via setShift.
func (w *timingWheel) reset() {
	w.take()
	w.spill = w.spill[:0]
	w.n = 0
	w.cur = 0
	w.far.reset()
}
