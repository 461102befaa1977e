package sim

import (
	"math/rand"
	"testing"
)

// drainOrdered pops every pending event and fails unless they come out in
// ascending (at, seq) order and number want.
func drainOrdered(t *testing.T, w *timingWheel, want int) []event {
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
// wheel, drain it past the first events' ticks, then push behind the
// cursor (legal at queue level — only the engine enforces at >= now) and
// check the total order survives re-filing every event.
func TestCalendarWindowRebuild(t *testing.T) {
	var w timingWheel
	w.setShift(tickShiftFor(1 << 10)) // 1 ps ticks: small levels, easy to overrun
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
	// Far events (heap tier) and then a push behind the cursor.
	push(1 << 40)
	push(1 << 39)
	push(3) // behind the cursor: triggers the rebuild
	drainOrdered(t, &w, 43)
}

// TestCalendarPopBatchTyped checks batch pops take exactly the run of
// same-instant typed events, in seq order, and stop at closures.
func TestCalendarPopBatchTyped(t *testing.T) {
	var w timingWheel
	w.setShift(tickShiftFor(1 << 13))
	for i := 0; i < 10; i++ {
		w.push(event{at: 500, seq: uint64(i), a: int64(i)})
	}
	w.push(event{at: 500, seq: 10, closure: true})
	w.push(event{at: 500, seq: 11, a: 11})
	w.push(event{at: 900, seq: 12, a: 12})

	batch, at := w.popBatchTyped(nil, 64)
	if at != 500 || len(batch) != 10 {
		t.Fatalf("first batch: at=%d len=%d, want at=500 len=10", at, len(batch))
	}
	for i, ev := range batch {
		if ev.A != int64(i) {
			t.Fatalf("batch[%d].A = %d, want %d (FIFO order broken)", i, ev.A, i)
		}
	}
	// The closure event heads the queue now: batch pop must yield nothing.
	batch, at = w.popBatchTyped(batch[:0], 64)
	if at != 500 || len(batch) != 0 {
		t.Fatalf("batch at a closure event: at=%d len=%d, want at=500 len=0", at, len(batch))
	}
	if e := w.pop(); !e.closure || e.seq != 10 {
		t.Fatalf("pop after empty batch = %+v, want the seq-10 closure", e)
	}
	batch, _ = w.popBatchTyped(batch[:0], 64)
	if len(batch) != 1 || batch[0].A != 11 {
		t.Fatalf("tail batch = %+v, want the single seq-11 event", batch)
	}
	if e := w.pop(); e.at != 900 || e.a != 12 {
		t.Fatalf("final pop = %+v, want the at-900 event", e)
	}
}

// TestCalendarBatchCap checks popBatchTyped honors max and the remainder
// pops in order.
func TestCalendarBatchCap(t *testing.T) {
	var w timingWheel
	w.setShift(tickShiftFor(1 << 13))
	for i := 0; i < 100; i++ {
		w.push(event{at: 7, seq: uint64(i), a: int64(i)})
	}
	batch, _ := w.popBatchTyped(nil, 64)
	if len(batch) != 64 || batch[63].A != 63 {
		t.Fatalf("capped batch len=%d last=%v, want 64/63", len(batch), batch[len(batch)-1])
	}
	batch, _ = w.popBatchTyped(batch[:0], 64)
	if len(batch) != 36 || batch[0].A != 64 {
		t.Fatalf("second batch len=%d first=%v, want 36/64", len(batch), batch[0])
	}
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
		var w timingWheel
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

// TestCalendarResetResidue verifies a reset wheel keeps no pending event
// in any tier and a reused wheel behaves like a fresh one.
func TestCalendarResetResidue(t *testing.T) {
	var w timingWheel
	w.setShift(tickShiftFor(1 << 13))
	for i := 0; i < 300; i++ {
		w.push(event{at: Time(i%7) * 1000 << (i % 40), seq: uint64(i)})
	}
	w.push(event{at: 1 << 50, seq: 301}) // heap tier
	w.pop()
	w.reset()
	if w.Len() != 0 || w.far.Len() != 0 || w.head != len(w.run) {
		t.Fatalf("after reset: Len %d, far %d, run %d..%d", w.Len(), w.far.Len(), w.head, len(w.run))
	}
	for l := range w.slots {
		if w.occ[l] != [wheelSlots / 64]uint64{} {
			t.Fatalf("level %d occupancy survived reset: %x", l, w.occ[l])
		}
		for j, s := range w.slots[l] {
			if len(s) != 0 {
				t.Fatalf("level %d slot %d holds %d events after reset", l, j, len(s))
			}
		}
	}
	// Replay a normal interleaving on the reused wheel.
	for i := 0; i < 300; i++ {
		w.push(event{at: Time(300 - i), seq: uint64(i)})
	}
	drainOrdered(t, &w, 300)
}

// TestWheelCascadeEveryLevel pushes events just below, on and just above
// every level's block edge — 256^l ticks for l = 1..4, the last one the
// edge of the heap tier — and requires each to pop in order and at its own
// time after cascading down from wherever it was filed.
func TestWheelCascadeEveryLevel(t *testing.T) {
	var w timingWheel
	w.setShift(2) // 4 ps ticks
	var seq uint64
	push := func(at Time) {
		w.push(event{at: at, seq: seq})
		seq++
	}
	want := 0
	for l := uint(1); l <= wheelLevels; l++ {
		edge := Time(4) << (wheelBits * l)
		for _, at := range []Time{edge - 4, edge - 1, edge, edge + 3, edge + 4, 3*edge + 5} {
			push(at)
			want++
		}
	}
	if w.far.Len() != 4 { // 256^4 ticks and beyond: edge, +3, +4 and 3·edge+5
		t.Fatalf("heap tier holds %d events, want 4", w.far.Len())
	}
	got := drainOrdered(t, &w, want)
	if got[len(got)-1].at != 3*(Time(4)<<(wheelBits*wheelLevels))+5 {
		t.Fatalf("last pop at %d", got[len(got)-1].at)
	}
}

// TestWheelBlockEdge files an event exactly on the first tick of the
// cursor's next level-1 block: it must go to level 1, not level 0, and
// become the run when the cursor reaches the block.
func TestWheelBlockEdge(t *testing.T) {
	var w timingWheel
	w.setShift(0)
	w.push(event{at: 255, seq: 0})
	w.push(event{at: 256, seq: 1})
	w.push(event{at: 256, seq: 2})
	if w.occ[0][3]>>63 != 1 || w.occ[1][0] != 1<<1 {
		t.Fatalf("occupancy level 0 %x, level 1 %x", w.occ[0], w.occ[1])
	}
	if e := w.pop(); e.at != 255 {
		t.Fatalf("first pop at %d, want 255", e.at)
	}
	if at := w.peekTime(); at != 256 || w.cur != 256 || len(w.run)-w.head != 2 {
		t.Fatalf("after the edge cascade: peek %d, cur %d, run %d", at, w.cur, len(w.run)-w.head)
	}
	drainOrdered(t, &w, 2)
}

// TestWheelHeapJump leaves only heap-tier events pending, so settle must
// jump the cursor to the heap minimum and pull in its top-level block —
// but not the events of later blocks.
func TestWheelHeapJump(t *testing.T) {
	var w timingWheel
	w.setShift(0)
	top := Time(1) << (wheelBits * wheelLevels)
	for i, at := range []Time{5 * top, 5*top + 7, 5*top + top/2, 6*top + 1, 9 * top} {
		w.push(event{at: at, seq: uint64(i)})
	}
	if w.far.Len() != 5 {
		t.Fatalf("heap tier holds %d events, want 5", w.far.Len())
	}
	if at := w.peekTime(); at != 5*top {
		t.Fatalf("peek %d, want %d", at, 5*top)
	}
	if w.far.Len() != 2 {
		t.Fatalf("after the jump the heap holds %d events, want the 2 of later blocks", w.far.Len())
	}
	drainOrdered(t, &w, 5)
}

// TestEnginePushBehindCursorAfterHorizon: a horizon-limited Run peeks at
// the next event and leaves the cursor on its tick, past Now. Scheduling
// between Now and that event is legal and must rebuild the wheel, not
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
// engine runs them in (at, seq) order through the batched path, with the
// closure table's slots recycled.
func TestEngineClosuresInTypedTick(t *testing.T) {
	rec := &recordingBatcher{}
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
	if len(e.fns) != 2 || e.fns[0] != nil || e.fns[1] != nil {
		t.Fatalf("closure table holds %d slots after the run, want 2 empty ones", len(e.fns))
	}
	e.Reset()
	if len(e.fns) != 0 || len(e.free) != 0 {
		t.Fatalf("Reset kept %d closures and %d free slots", len(e.fns), len(e.free))
	}
}

// retained counts the event slots a wheel holds allocated: every tier's
// capacity, pending or not.
func (w *timingWheel) retained() int {
	n := cap(w.run) + cap(w.far.items) + cap(w.spill)
	for l := range w.slots {
		for _, s := range w.slots[l] {
			n += cap(s)
		}
	}
	return n
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

// TestWheelStorageBounded pins the queue's retained storage under
// HEX-shaped traffic over three identical runs on one engine: at most 4
// event slots per peak pending event, and no growth after the first run.
// Wide buckets that hold a whole wave and keep every consumed event until
// it drains fail the first bound. Slot arrays that migrate between ticks,
// so that each run's time-0 burst strands its capacity in another slot,
// fail the second.
func TestWheelStorageBounded(t *testing.T) {
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

// TestEngineBatchDispatch verifies the engine batches same-instant typed
// events through DispatchBatch in exactly Dispatch order, interleaved
// correctly with closure events.
func TestEngineBatchDispatch(t *testing.T) {
	rec := &recordingBatcher{}
	e := NewEngine()
	e.SetDispatcher(rec)
	for i := 0; i < 5; i++ {
		e.ScheduleEvent(100, 1, int64(i), 0)
	}
	e.Schedule(100, func() { rec.log = append(rec.log, -1) })
	for i := 5; i < 8; i++ {
		e.ScheduleEvent(100, 1, int64(i), 0)
	}
	e.ScheduleEvent(200, 2, 99, 0)
	e.RunAll()
	want := []int64{0, 1, 2, 3, 4, -1, 5, 6, 7, 99}
	if len(rec.log) != len(want) {
		t.Fatalf("log %v, want %v", rec.log, want)
	}
	for i := range want {
		if rec.log[i] != want[i] {
			t.Fatalf("log %v, want %v", rec.log, want)
		}
	}
	if rec.batches == 0 {
		t.Fatal("DispatchBatch was never used")
	}
	if e.Executed != 10 {
		t.Fatalf("Executed = %d, want 10", e.Executed)
	}
}

// recordingBatcher records dispatch order and counts batch calls.
type recordingBatcher struct {
	log     []int64
	batches int
}

func (r *recordingBatcher) Dispatch(kind uint8, a, b int64) { r.log = append(r.log, a) }

func (r *recordingBatcher) DispatchBatch(at Time, evs []EventRec) {
	r.batches++
	for i := range evs {
		r.Dispatch(evs[i].Kind, evs[i].A, evs[i].B)
	}
}

// TestEngineHorizonHintNonEmptyPanics pins the sizing contract: the wheel
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
