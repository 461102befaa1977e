package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is a container/heap reference implementation with the same
// (at, seq) order as eventQueue and timingWheel. The fuzz and property
// tests below drive all three through identical push/pop/reset
// interleavings and require identical pop sequences: because (at, seq) keys
// are unique, every correct priority queue yields the same total order
// regardless of arity, sift strategy, or bucketing.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return before(&h[i], &h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// queueTrio drives the timing wheel, the retained 4-ary heap, and
// container/heap in lockstep and fails on any disagreement. last is the
// time of the latest pop, which level-span pushes are relative to.
type queueTrio struct {
	t     *testing.T
	wheel timingWheel
	hp    eventQueue
	ref   refHeap
	seq   uint64
	last  Time
}

func (q *queueTrio) push(at Time) {
	e := event{at: at, seq: q.seq, a: int64(q.seq)}
	q.seq++
	q.wheel.push(e)
	q.hp.push(e)
	heap.Push(&q.ref, e)
}

func (q *queueTrio) pop(op int) {
	q.t.Helper()
	if q.wheel.Len() != q.hp.Len() || q.wheel.Len() != q.ref.Len() {
		q.t.Fatalf("op %d: Len mismatch: wheel %d, heap %d, reference %d",
			op, q.wheel.Len(), q.hp.Len(), q.ref.Len())
	}
	if q.wheel.Len() == 0 {
		return
	}
	if pt := q.wheel.peekTime(); pt != q.ref[0].at {
		q.t.Fatalf("op %d: peekTime %d, reference %d", op, pt, q.ref[0].at)
	}
	got, mid, want := q.wheel.pop(), q.hp.pop(), heap.Pop(&q.ref).(event)
	if got.at != want.at || got.seq != want.seq || mid.at != want.at || mid.seq != want.seq {
		q.t.Fatalf("op %d: pop mismatch: wheel (at=%d seq=%d), heap (at=%d seq=%d), reference (at=%d seq=%d)",
			op, got.at, got.seq, mid.at, mid.seq, want.at, want.seq)
	}
	q.last = want.at
}

func (q *queueTrio) reset() {
	q.wheel.reset()
	q.hp.reset()
	q.ref = q.ref[:0]
	q.seq = 0
	q.last = 0
}

func (q *queueTrio) drain(op int) {
	q.t.Helper()
	for q.wheel.Len() > 0 {
		q.pop(op)
	}
	if q.hp.Len() != 0 || q.ref.Len() != 0 {
		q.t.Fatalf("drain: heap holds %d and reference holds %d events the wheel does not",
			q.hp.Len(), q.ref.Len())
	}
}

// driveQueues feeds one interleaving of operations to all three queues.
// The first byte sizes the wheel's tick from a horizon hint (the full range
// from degenerate 1 ps ticks to ticks wider than every delta must order
// identically); each further byte selects an action:
//
//   - < 88: pop everywhere (and compare)
//   - < 96: reset all queues (covers arena-style reuse mid-stream)
//   - < 112: same-instant burst: several pushes at one repeated time
//   - < 120: far-future burst: pushes far beyond the top level, exercising
//     the heap tier and the cursor's jumps into it
//   - < 130: level-span push relative to the latest pop, for each level
//     l = 0..4 (4 being the heap tier): 120+l lands exactly on the next
//     aligned level-l block edge, 125+l one level-l block span out plus
//     jitter, so every cascade path is reached
//   - else: push one event with coarse time quantization (many equal-at
//     events for the seq tiebreak) and occasional large jumps (deep sifts,
//     pushes behind the cursor that rebuild the wheel)
func driveQueues(t *testing.T, ops []byte) {
	t.Helper()
	q := &queueTrio{t: t}
	if len(ops) > 0 {
		q.wheel.setShift(tickShiftFor(Time(1) << (ops[0] % 28)))
		ops = ops[1:]
	}
	for i, op := range ops {
		switch {
		case op < 88:
			q.pop(i)
		case op < 96:
			q.reset()
		case op < 112:
			at := Time(op-96) * 700
			for k := 0; k < 5; k++ {
				q.push(at)
			}
		case op < 120:
			base := Time(i+1) * 1e9
			for k := Time(0); k < 3; k++ {
				q.push(base + k*1e7)
			}
		case op < 130:
			l := uint(op-120) % 5
			span := Time(1) << (q.wheel.shift + wheelBits*l)
			if op < 125 {
				q.push((q.last/span + 1) * span)
			} else {
				q.push(q.last + span + Time(i%7))
			}
		default:
			at := Time(op>>3) * 100
			if op&7 == 7 {
				at += Time(i) * 1e6
			}
			q.push(at)
		}
	}
	q.drain(len(ops))
}

// FuzzEventQueue lets the fuzzer search for an interleaving where the
// timing wheel, the 4-ary heap, and container/heap disagree. Run with:
// go test -fuzz FuzzEventQueue ./internal/sim
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 200, 201, 202, 0, 0, 0})
	f.Add([]byte{0, 255, 7, 15, 23, 0, 128, 0, 0, 95, 95})
	f.Add([]byte{27, 100, 113, 116, 119, 0, 0, 90, 200, 0})
	f.Add([]byte{10, 200, 0, 120, 121, 122, 123, 124, 0, 125, 126, 127, 128, 129, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 512)
	r := rand.New(rand.NewSource(1))
	r.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<16 {
			ops = ops[:1<<16]
		}
		driveQueues(t, ops)
	})
}

// TestEventQueueMatchesReference is the deterministic property test run by
// plain `go test`: random interleavings at several scales, plus a reuse
// round after reset to cover the arena path.
func TestEventQueueMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(424242))
	for _, n := range []int{1, 2, 7, 64, 1000, 20000} {
		ops := make([]byte, n)
		r.Read(ops)
		driveQueues(t, ops)
	}
}

// TestEventQueueReuseAfterReset verifies reset leaves no residue that a
// later run could observe: the same interleaving replayed on a reused queue
// behaves identically to a fresh one.
func TestEventQueueReuseAfterReset(t *testing.T) {
	var q eventQueue
	for i := 0; i < 100; i++ {
		q.push(event{at: Time(100 - i), seq: uint64(i)})
	}
	q.reset()
	if q.Len() != 0 {
		t.Fatalf("Len after reset = %d", q.Len())
	}
	spare := q.items[:cap(q.items)]
	for i := range spare {
		e := &spare[i]
		if e.at != 0 || e.seq != 0 || e.kind != 0 || e.a != 0 || e.b != 0 {
			t.Fatalf("reset left residue at slot %d: %+v", i, *e)
		}
	}
	ops := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(ops)
	driveQueues(t, ops)
}
