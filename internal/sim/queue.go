package sim

// event is a scheduled typed event or callback. seq provides stable FIFO
// ordering among events at the same instant, making execution order (and
// therefore every simulation) fully deterministic. Typed events carry
// their payload inline and are handed to the engine's Dispatcher, avoiding
// a heap-allocated closure per event on the simulator's hot path. A
// closure event's a indexes the engine's closure table, so no event holds
// a pointer and queue storage is invisible to the GC.
type event struct {
	at      Time
	seq     uint64
	a, b    int64
	kind    uint8
	closure bool
}

// eventQueue is a 4-ary min-heap of events ordered by (at, seq).
// It is implemented directly (rather than via container/heap) to avoid
// interface boxing. The arity-4 layout halves the tree depth of a binary
// heap, so a sift touches fewer cache lines per level. It was the engine's
// event queue until bucketed queues replaced it on the hot path; it is
// retained as the far lane's out-of-order path and as the differential
// reference the near ring is fuzzed against (see queue_fuzz_test.go).
// Because (at, seq) keys are unique, pops yield the same total order for
// any heap arity or bucketing, so the queue shape is not observable in
// simulation results.
type eventQueue struct {
	items []event
}

func (q *eventQueue) Len() int { return len(q.items) }

// before reports whether a orders strictly before b.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e and restores the heap invariant (hole-based sift-up).
func (q *eventQueue) push(e event) {
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(&e, &q.items[parent]) {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = e
}

// pop removes and returns the earliest event. It panics on an empty queue;
// callers must check Len first.
func (q *eventQueue) pop() event {
	top := q.items[0]
	last := len(q.items) - 1
	moved := q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		// Hole-based sift-down: move the hole to moved's final position,
		// writing each element once instead of swapping.
		i := 0
		for {
			c := i<<2 + 1
			if c >= last {
				break
			}
			end := c + 4
			if end > last {
				end = last
			}
			best := c
			for k := c + 1; k < end; k++ {
				if before(&q.items[k], &q.items[best]) {
					best = k
				}
			}
			if !before(&q.items[best], &moved) {
				break
			}
			q.items[i] = q.items[best]
			i = best
		}
		q.items[i] = moved
	}
	return top
}

// peekTime returns the time of the earliest event without removing it.
func (q *eventQueue) peekTime() Time { return q.items[0].at }

// reset empties the queue while keeping its backing array for reuse,
// zeroing the slots it vacates.
func (q *eventQueue) reset() {
	clear(q.items)
	q.items = q.items[:0]
}
