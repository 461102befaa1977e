package sim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// drainOrdered pops every pending event and fails unless they come out in
// ascending (at, seq) order and number want.
func drainOrdered(t *testing.T, w *ringQueue, want int) []event {
	t.Helper()
	var got []event
	for w.Len() > 0 {
		e := w.pop()
		if n := len(got); n > 0 && !before(&got[n-1], &e) {
			t.Fatalf("pop %d = (at=%d seq=%d) after (at=%d seq=%d)",
				n, e.at, e.seq, got[n-1].at, got[n-1].seq)
		}
		got = append(got, e)
	}
	if len(got) != want {
		t.Fatalf("drained %d events, want %d", len(got), want)
	}
	return got
}

// TestCalendarWindowRebuild drives the rebuild path explicitly: fill the
// queue, drain it past the first events' ticks, then push behind the
// cursor (legal at queue level — only the engine enforces at >= now) and
// check the total order survives re-filing every event.
func TestCalendarWindowRebuild(t *testing.T) {
	var w ringQueue
	w.setShift(tickShiftFor(1 << 10)) // 1 ps ticks: a 4 ns ring, easy to overrun
	var seq uint64
	push := func(at Time) {
		w.push(event{at: at, seq: seq})
		seq++
	}
	for i := 0; i < 50; i++ {
		push(Time(10_000 + i*37))
	}
	for i := 0; i < 10; i++ {
		w.pop()
	}
	// Far events (FIFO, then heap) and then a push behind the cursor.
	push(1 << 40)
	push(1 << 39)
	push(3) // behind the cursor: triggers the rebuild
	drainOrdered(t, &w, 43)
}

// TestCalendarHorizonHintOrderInvariance re-runs one interleaving under
// many tick widths and requires the identical pop sequence: the hint may
// only move cost, never order. This is the queue-level statement of the
// golden tests' bit-identical guarantee.
func TestCalendarHorizonHintOrderInvariance(t *testing.T) {
	ops := make([]byte, 4096)
	rand.New(rand.NewSource(99)).Read(ops)
	var want []Time
	for _, shift := range []uint{0, 3, 6, 9, 13, 20, 27} {
		var w ringQueue
		w.setShift(shift)
		var seq uint64
		var got []Time
		for i, op := range ops {
			if op < 96 && w.Len() > 0 {
				got = append(got, w.pop().at)
				continue
			}
			at := Time(op>>2) * 900
			if op&3 == 3 {
				at += Time(i) * 1e7
			}
			w.push(event{at: at, seq: seq})
			seq++
		}
		for w.Len() > 0 {
			got = append(got, w.pop().at)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("shift %d: popped %d events, want %d", shift, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shift %d: pop %d = %v, want %v", shift, i, got[i], want[i])
			}
		}
	}
}

// TestCalendarResetResidue verifies a reset queue keeps no pending event
// in any tier and a reused queue behaves like a fresh one.
func TestCalendarResetResidue(t *testing.T) {
	var w ringQueue
	w.setShift(tickShiftFor(1 << 13))
	for i := 0; i < 300; i++ {
		w.push(event{at: Time(i%7) * 1000 << (i % 40), seq: uint64(i)})
	}
	w.push(event{at: 1 << 50, seq: 301}) // far lane
	w.pop()
	w.reset()
	if w.Len() != 0 || w.far.Len() != 0 || len(w.fifo) != 0 || w.head != len(w.run) {
		t.Fatalf("after reset: Len %d, heap %d, FIFO %d, run %d..%d",
			w.Len(), w.far.Len(), len(w.fifo), w.head, len(w.run))
	}
	if w.occSum != 0 || w.occ != [ringSlots / 64]uint64{} || len(w.pool) != 0 || w.free != 0 {
		t.Fatalf("ring survived reset: summary %x, pool %d, free %d", w.occSum, len(w.pool), w.free)
	}
	for j, k := range w.slots {
		if k != 0 {
			t.Fatalf("slot %d heads node %d after reset", j, k)
		}
	}
	// Replay a normal interleaving on the reused queue.
	for i := 0; i < 300; i++ {
		w.push(event{at: Time(300 - i), seq: uint64(i)})
	}
	drainOrdered(t, &w, 300)
}

// pending reports how many events sit in the ring, the FIFO and the heap.
func (w *ringQueue) pending() (ring, fifo, heap int) {
	for i, word := range w.occ {
		for ; word != 0; word &= word - 1 {
			for k := w.slots[i<<6|bits.TrailingZeros64(word)]; k != 0; k = w.pool[k-1].next {
				ring++
			}
		}
	}
	return ring, len(w.fifo) - w.fhead, w.far.Len()
}

// TestRingFarJump leaves only far events pending, so settle must jump the
// cursor to the far minimum and move exactly that tick's events — from the
// FIFO and the heap alike — into run, leaving later ticks where they are.
func TestRingFarJump(t *testing.T) {
	var w ringQueue
	w.setShift(0)
	far := Time(5 * ringSlots)
	for i, at := range []Time{far, far + 7, 9 * far, far + ringSlots/2, far} {
		w.push(event{at: at, seq: uint64(10 - i)})
	}
	if r, f, h := w.pending(); r != 0 || f != 3 || h != 2 {
		t.Fatalf("ring/FIFO/heap hold %d/%d/%d events, want 0/3/2", r, f, h)
	}
	if at := w.peekTime(); at != far || w.cur != int64(far) || len(w.run)-w.head != 2 {
		t.Fatalf("peek %d, cur %d, run %d: want %d, %d, 2", at, w.cur, len(w.run)-w.head, far, far)
	}
	if r, f, h := w.pending(); r != 0 || f+h != 3 {
		t.Fatalf("after the jump ring/FIFO/heap hold %d/%d/%d events, want the 3 later ones", r, f, h)
	}
	got := drainOrdered(t, &w, 5)
	if got[0].seq != 6 || got[1].seq != 10 {
		t.Fatalf("tick %d popped seqs %d, %d, want 6 then 10", far, got[0].seq, got[1].seq)
	}
}

// TestRingWindowEdge pushes one tick inside and one tick beyond the ring's
// window: cur+4095 is the last tick the ring holds, cur+4096 the first of
// the far lane, and both must pop in order after the cursor moves.
func TestRingWindowEdge(t *testing.T) {
	var w ringQueue
	w.setShift(3)
	w.push(event{at: 1000 << 3, seq: 0})
	w.pop() // cur = 1000
	last, first := Time(1000+ringSlots-1)<<3, Time(1000+ringSlots)<<3
	w.push(event{at: first, seq: 1})
	w.push(event{at: last + 7, seq: 2})
	w.push(event{at: last, seq: 3})
	if r, f, h := w.pending(); r != 2 || f != 1 || h != 0 {
		t.Fatalf("ring/FIFO/heap hold %d/%d/%d events, want 2/1/0", r, f, h)
	}
	if j := int(last>>3) & ringMask; j != int(w.cur-1)&ringMask {
		t.Fatalf("cur+4095 filed in slot %d, want the one just behind the cursor's", j)
	}
	got := drainOrdered(t, &w, 3)
	if got[0].at != last || got[1].at != last+7 || got[2].at != first {
		t.Fatalf("popped %d, %d, %d", got[0].at, got[1].at, got[2].at)
	}
}

// TestRingWrapAround walks the cursor five laps around the ring, each lap
// crossing the wrap from slot 4095 to slot 0, starting with a next
// occupied slot that only the summary word's wrap-around finds.
func TestRingWrapAround(t *testing.T) {
	var w ringQueue
	w.setShift(0)
	var seq uint64
	push := func(at Time) {
		w.push(event{at: at, seq: seq})
		seq++
	}
	push(ringSlots - 3)
	prev := w.pop() // cur sits in the ring's last word, its later slots empty
	for _, d := range []Time{3, 4, 70, ringSlots - 200, ringSlots - 1} {
		push(ringSlots - 3 + d)
	}
	if r, _, _ := w.pending(); r != 5 {
		t.Fatalf("ring holds %d events, want 5", r)
	}
	if at := w.peekTime(); at != ringSlots {
		t.Fatalf("peek %d, want %d in slot 0", at, ringSlots)
	}
	pops := 1
	for w.Len() > 0 {
		e := w.pop()
		pops++
		if !before(&prev, &e) {
			t.Fatalf("pop %d = (at=%d seq=%d) after (at=%d seq=%d)", pops, e.at, e.seq, prev.at, prev.seq)
		}
		prev = e
		if e.at < 6*ringSlots {
			push(e.at + ringSlots/3 + Time(e.seq%5))
		}
	}
	if pops != int(seq) {
		t.Fatalf("popped %d of %d events", pops, seq)
	}
}

// TestRingTickEqualsFarMin files far events first, then, once the cursor
// has come within reach, ring events of the same tick: settle must merge
// the ring slot, the FIFO and the heap into one sorted run.
func TestRingTickEqualsFarMin(t *testing.T) {
	var w ringQueue
	w.setShift(0)
	const tick = 3 * ringSlots
	w.push(event{at: tick, seq: 5}) // FIFO
	w.push(event{at: tick, seq: 3}) // out of order: heap
	w.push(event{at: tick + 1, seq: 9})
	w.push(event{at: 2*ringSlots + 5, seq: 0})
	w.pop() // cur = 2·4096+5: tick is now within the ring's reach
	w.push(event{at: tick, seq: 4})
	w.push(event{at: tick, seq: 1})
	w.push(event{at: tick, seq: 7})
	if r, f, h := w.pending(); r != 3 || f != 2 || h != 1 {
		t.Fatalf("ring/FIFO/heap hold %d/%d/%d events, want 3/2/1", r, f, h)
	}
	if at := w.peekTime(); at != tick || len(w.run)-w.head != 5 {
		t.Fatalf("peek %d with %d events in run, want %d with 5", at, len(w.run)-w.head, tick)
	}
	got := drainOrdered(t, &w, 6)
	for i, want := range []uint64{1, 3, 4, 5, 7, 9} {
		if got[i].seq != want {
			t.Fatalf("pop %d: seq %d, want %d", i, got[i].seq, want)
		}
	}
}

// TestFarFIFOHeapFallback sends far events that break (at, seq) order —
// descending times, then equal times with descending keys — to the heap
// while in-order ones append to the FIFO, and pops the merge in order.
func TestFarFIFOHeapFallback(t *testing.T) {
	var w ringQueue
	w.setShift(0)
	far := Time(10 * ringSlots)
	pushes := []struct {
		at  Time
		seq uint64
	}{
		{far + 50, 10}, // FIFO
		{far + 60, 11}, // FIFO: after the tail
		{far + 40, 12}, // heap: before the tail
		{far + 60, 2},  // heap: equal time, smaller key
		{far + 60, 13}, // FIFO: equal time, larger key
		{far + 30, 14}, // heap
		{far + 70, 15}, // FIFO
	}
	for _, p := range pushes {
		w.push(event{at: p.at, seq: p.seq})
	}
	if r, f, h := w.pending(); r != 0 || f != 4 || h != 3 {
		t.Fatalf("ring/FIFO/heap hold %d/%d/%d events, want 0/4/3", r, f, h)
	}
	got := drainOrdered(t, &w, len(pushes))
	for i, want := range []uint64{14, 12, 10, 2, 11, 13, 15} {
		if got[i].seq != want {
			t.Fatalf("pop %d: seq %d, want %d", i, got[i].seq, want)
		}
	}
	if w.fhead != len(w.fifo) {
		t.Fatalf("drained FIFO still holds events %d..%d", w.fhead, len(w.fifo))
	}
}

// TestFarFIFOReclaimsConsumedPrefix interleaves in-order far pushes with
// pops, as a multi-pulse run's sleep timers do, and requires the FIFO to
// reuse its consumed prefix instead of growing with every push.
func TestFarFIFOReclaimsConsumedPrefix(t *testing.T) {
	var w ringQueue
	w.setShift(0)
	at := Time(2 * ringSlots)
	for i := 0; i < 64; i++ {
		w.push(event{at: at + Time(i), seq: uint64(i)})
	}
	seq := uint64(64)
	for i := 0; i < 100_000; i++ {
		e := w.pop()
		w.push(event{at: e.at + 2*ringSlots, seq: seq})
		seq++
	}
	if c := cap(w.fifo); c > 256 {
		t.Fatalf("FIFO capacity %d for 64 pending events", c)
	}
	drainOrdered(t, &w, 64)
}

// TestRingRebuildWithFarPending pushes behind the cursor while the ring,
// the FIFO and the heap all hold events: the ring is re-filed around the
// new cursor (an event now beyond its window goes to the far lane), the
// far lane stays put, and the merged order survives.
func TestRingRebuildWithFarPending(t *testing.T) {
	var w ringQueue
	w.setShift(0)
	var seq uint64
	push := func(at Time) {
		w.push(event{at: at, seq: seq})
		seq++
	}
	push(20_000)
	push(40_000) // FIFO
	push(30_000) // heap
	w.pop()      // cur = 20000
	push(22_000)
	push(20_000 + ringSlots - 1) // the ring's last tick: beyond the new window
	if r, f, h := w.pending(); r != 2 || f != 1 || h != 1 {
		t.Fatalf("ring/FIFO/heap hold %d/%d/%d events, want 2/1/1", r, f, h)
	}
	push(19_000) // behind the cursor
	if w.cur != 19_000 {
		t.Fatalf("cursor %d after the rebuild, want 19000", w.cur)
	}
	if r, f, h := w.pending(); r != 1 || f != 1 || h != 2 {
		t.Fatalf("ring/FIFO/heap hold %d/%d/%d events, want 1/1/2", r, f, h)
	}
	got := drainOrdered(t, &w, 5)
	for i, want := range []Time{19_000, 22_000, 20_000 + ringSlots - 1, 30_000, 40_000} {
		if got[i].at != want {
			t.Fatalf("pop %d at %d, want %d", i, got[i].at, want)
		}
	}
}

// TestEnginePushBehindCursorAfterHorizon: a horizon-limited Run peeks at
// the next event and leaves the cursor on its tick, past Now. Scheduling
// between Now and that event is legal and must rebuild the ring, not
// reorder anything.
func TestEnginePushBehindCursorAfterHorizon(t *testing.T) {
	e := NewEngine()
	e.SetHorizonHint(8197)
	var got []Time
	for _, at := range []Time{10, 1_000_000, 1_000_001} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run(100)
	if e.queue.cur <= int64(e.Now())>>e.queue.shift {
		t.Fatalf("cursor %d did not move past now's tick", e.queue.cur)
	}
	for _, at := range []Time{500, 200, 1_000_000} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.RunAll()
	want := []Time{10, 200, 500, 1_000_000, 1_000_000, 1_000_001}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

// TestEngineClosuresInTypedTick interleaves closures with typed events in
// one tick — at one instant and at neighbouring instants — and checks the
// engine runs them in (at, seq) order, with the closure table's slots
// recycled.
func TestEngineClosuresInTypedTick(t *testing.T) {
	rec := &recordingDispatcher{}
	e := NewEngine()
	e.SetDispatcher(rec)
	e.SetHorizonHint(8197) // 8 ps ticks: 800..807 share one
	e.ScheduleEvent(803, 1, 3, 0)
	e.Schedule(801, func() { rec.log = append(rec.log, -1) })
	e.ScheduleEvent(800, 1, 0, 0)
	e.ScheduleEvent(801, 1, 1, 0)
	e.Schedule(803, func() {
		rec.log = append(rec.log, -2)
		e.Schedule(803, func() { rec.log = append(rec.log, -3) })
		e.ScheduleEvent(803, 1, 4, 0)
	})
	e.ScheduleEvent(801, 1, 2, 0)
	e.RunAll()
	want := []int64{0, -1, 1, 2, 3, -2, -3, 4}
	if len(rec.log) != len(want) {
		t.Fatalf("log %v, want %v", rec.log, want)
	}
	for i := range want {
		if rec.log[i] != want[i] {
			t.Fatalf("log %v, want %v", rec.log, want)
		}
	}
	if e.Executed != uint64(len(want)) {
		t.Fatalf("Executed = %d, want %d", e.Executed, len(want))
	}
	if len(e.fns) != 2 || e.fns[0] != nil || e.fns[1] != nil {
		t.Fatalf("closure table holds %d slots after the run, want 2 empty ones", len(e.fns))
	}
	e.Reset()
	if len(e.fns) != 0 || len(e.free) != 0 {
		t.Fatalf("Reset kept %d closures and %d free slots", len(e.fns), len(e.free))
	}
}

// hexTraffic is HEX-shaped engine load. Like core's build, a run opens
// with a time-0 guard check per node (kind 2); then 64 chains of
// deliveries (kind 0) each schedule their successor 7.2–8.2 ns later (the
// paper's link-delay interval), and every fourth delivery also starts a
// 1 ms sleep timer (kind 1).
type hexTraffic struct {
	e           *Engine
	rng         *RNG
	left, fired int
	peak        int
}

func (h *hexTraffic) Dispatch(kind uint8, _, _ int64) {
	if p := h.e.Pending(); p > h.peak {
		h.peak = p
	}
	if kind != 0 {
		return // a guard check or a sleep timer
	}
	h.fired++
	if h.fired%4 == 0 {
		h.e.ScheduleEventAfter(Millisecond, 1, 0, 0)
	}
	if h.left > 0 {
		h.left--
		h.e.ScheduleEventAfter(h.rng.TimeIn(7200, 8200), 0, 0, 0)
	}
}

// TestQueueStorageBounded pins the queue's retained storage under
// synthetic HEX-shaped traffic over three identical runs on one engine: at
// most 4 event slots per peak pending event, and no growth after the first
// run. Wide buckets that hold a whole wave and keep every consumed event
// until it drains fail the first bound. Storage that migrates between
// ticks, so that each run's time-0 burst strands its capacity somewhere
// new, fails the second. internal/core's TestArenaQueueStorageRealTraffic
// pins the same under real runs.
func TestQueueStorageBounded(t *testing.T) {
	e := NewEngine()
	h := &hexTraffic{e: e}
	e.SetDispatcher(h)
	first := 0
	for run := 0; run < 3; run++ {
		e.Reset()
		e.SetHorizonHint(8197)
		h.rng, h.left, h.fired, h.peak = NewRNG(3), 200_000-64, 0, 0
		for i := 0; i < 4096; i++ {
			e.ScheduleEvent(0, 2, int64(i), 0)
		}
		for i := 0; i < 64; i++ {
			e.ScheduleEvent(h.rng.TimeIn(0, 8200), 0, 0, 0)
		}
		e.RunAll()
		if h.fired != 200_000 {
			t.Fatalf("run %d: %d chain events, want 200000", run, h.fired)
		}
		slots := e.queue.retained()
		t.Logf("run %d: %d event slots retained for a peak of %d pending", run, slots, h.peak)
		if slots > 4*h.peak {
			t.Fatalf("run %d: queue retains %d event slots for a peak of %d pending (%.2f per event), want <= 4",
				run, slots, h.peak, float64(slots)/float64(h.peak))
		}
		if run == 0 {
			first = slots
		} else if slots != first {
			t.Fatalf("run %d: an identical run grew the queue's storage from %d to %d event slots", run, first, slots)
		}
	}
}

// recordingDispatcher records the a payload of each typed event in
// dispatch order.
type recordingDispatcher struct{ log []int64 }

func (r *recordingDispatcher) Dispatch(kind uint8, a, b int64) { r.log = append(r.log, a) }

// TestEngineHorizonHintNonEmptyPanics pins the sizing contract: the queue
// cannot be resized under live events.
func TestEngineHorizonHintNonEmptyPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	defer func() {
		if recover() == nil {
			t.Error("SetHorizonHint on a non-empty queue did not panic")
		}
	}()
	e.SetHorizonHint(1000)
}
