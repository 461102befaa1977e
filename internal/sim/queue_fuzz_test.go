package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is a container/heap reference implementation with the same
// (at, seq) order as eventQueue and ringQueue. The fuzz and property
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

// queueTrio drives the near ring, the retained 4-ary heap, and
// container/heap in lockstep and fails on any disagreement. last is the
// time of the latest pop, which ring-edge pushes are relative to, and
// lastFar the time of the latest far-lane push. Keys count up from 0 for
// ordinary pushes and down from the top of the key space for pushes that
// must sort before an equal-time predecessor; the two never meet.
type queueTrio struct {
	t       *testing.T
	ring    ringQueue
	hp      eventQueue
	ref     refHeap
	seq     uint64
	down    uint64
	last    Time
	lastFar Time
}

func (q *queueTrio) push(at Time) {
	q.pushKeyed(at, q.seq)
	q.seq++
}

// pushDown pushes under the next descending key.
func (q *queueTrio) pushDown(at Time) {
	q.down--
	q.pushKeyed(at, q.down)
}

func (q *queueTrio) pushKeyed(at Time, seq uint64) {
	e := event{at: at, seq: seq, a: int64(seq)}
	if int64(at)>>q.ring.shift-int64(q.last)>>q.ring.shift >= ringSlots {
		q.lastFar = at
	}
	q.ring.push(e)
	q.hp.push(e)
	heap.Push(&q.ref, e)
}

func (q *queueTrio) pop(op int) {
	q.t.Helper()
	if q.ring.Len() != q.hp.Len() || q.ring.Len() != q.ref.Len() {
		q.t.Fatalf("op %d: Len mismatch: ring %d, heap %d, reference %d",
			op, q.ring.Len(), q.hp.Len(), q.ref.Len())
	}
	if q.ring.Len() == 0 {
		return
	}
	if pt := q.ring.peekTime(); pt != q.ref[0].at {
		q.t.Fatalf("op %d: peekTime %d, reference %d", op, pt, q.ref[0].at)
	}
	got, mid, want := q.ring.pop(), q.hp.pop(), heap.Pop(&q.ref).(event)
	if got.at != want.at || got.seq != want.seq || mid.at != want.at || mid.seq != want.seq {
		q.t.Fatalf("op %d: pop mismatch: ring (at=%d seq=%d), heap (at=%d seq=%d), reference (at=%d seq=%d)",
			op, got.at, got.seq, mid.at, mid.seq, want.at, want.seq)
	}
	q.last = want.at
}

func (q *queueTrio) reset() {
	q.ring.reset()
	q.hp.reset()
	q.ref = q.ref[:0]
	q.seq, q.down = 0, 0
	q.last, q.lastFar = 0, 0
}

func (q *queueTrio) drain(op int) {
	q.t.Helper()
	for q.ring.Len() > 0 {
		q.pop(op)
	}
	if q.hp.Len() != 0 || q.ref.Len() != 0 {
		q.t.Fatalf("drain: heap holds %d and reference holds %d events the ring does not",
			q.hp.Len(), q.ref.Len())
	}
}

// driveQueues feeds one interleaving of operations to all three queues.
// The first byte sizes the ring's tick from a horizon hint (the full range
// from degenerate 1 ps ticks to ticks wider than every delta must order
// identically); each further byte selects an action:
//
//   - < 88: pop everywhere (and compare)
//   - < 96: reset all queues (covers arena-style reuse mid-stream)
//   - < 112: same-instant burst: several pushes at one repeated time
//   - < 120: far-future burst: in-order pushes far beyond the ring, which
//     fill the far FIFO and make the cursor jump into it
//   - < 130: ring-edge and far-lane pushes, relative to the latest pop's
//     tick c: 120 and 121 land on the first and last instant of tick
//     c+4095, the ring's last; 122 and 123 on tick c+4096, the far lane's
//     first, and a few picoseconds past it; 124 at mid-ring, so the cursor
//     later crosses the ring's wrap; relative to the latest far push:
//     125 lands before it (the FIFO→heap fallback), 126 at the same time
//     under a descending key (the equal-time fallback), 127 at the same
//     time under an ascending key (a FIFO append), 128 a few descending
//     far pushes; 129 pushes on the latest far time after the cursor has
//     come within reach of it, filing a ring event on the far minimum's tick
//   - else: push one event with coarse time quantization (many equal-at
//     events for the seq tiebreak) and occasional large jumps (deep sifts,
//     pushes behind the cursor that rebuild the ring)
func driveQueues(t *testing.T, ops []byte) {
	t.Helper()
	q := &queueTrio{t: t}
	if len(ops) > 0 {
		q.ring.setShift(tickShiftFor(Time(1) << (ops[0] % 28)))
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
			tick := Time(1) << q.ring.shift
			c := q.last >> q.ring.shift
			jitter := Time(i % 7)
			switch op {
			case 120:
				q.push((c + ringSlots - 1) * tick)
			case 121:
				q.push((c+ringSlots)*tick - 1)
			case 122:
				q.push((c + ringSlots) * tick)
			case 123:
				q.push((c+ringSlots)*tick + jitter)
			case 124:
				q.push((c+ringSlots/2)*tick + jitter)
			case 125:
				q.push(max(q.lastFar-1-jitter, q.last))
			case 126:
				q.pushDown(max(q.lastFar, q.last))
			case 127:
				q.push(max(q.lastFar, q.last))
			case 128:
				base := (c + 2*ringSlots) * tick
				for k := Time(3); k > 0; k-- {
					q.push(base + k*tick)
				}
			case 129:
				if q.lastFar > q.last && (q.lastFar-q.last)>>q.ring.shift < ringSlots {
					q.push(q.lastFar)
				}
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
// near ring, the 4-ary heap, and container/heap disagree. Run with:
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
	f.Add([]byte{14, 122, 128, 126, 125, 127, 0, 129, 126, 129, 0, 0, 0, 0, 0, 0, 0, 0})
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
