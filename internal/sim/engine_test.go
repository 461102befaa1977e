package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.RunAll()
	want := []Time{5, 10, 20, 25, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events executed out of order: %v", got)
		}
	}
}

func TestEngineNowAdvances(t *testing.T) {
	e := NewEngine()
	e.Schedule(50, func() {
		if e.Now() != 50 {
			t.Errorf("Now() = %v during event at 50", e.Now())
		}
		e.ScheduleAfter(25, func() {
			if e.Now() != 75 {
				t.Errorf("Now() = %v, want 75", e.Now())
			}
		})
	})
	e.RunAll()
	if e.Now() != 75 {
		t.Errorf("final Now() = %v, want 75", e.Now())
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	ran := make(map[Time]bool)
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.Schedule(at, func() { ran[at] = true })
	}
	e.Run(20)
	if !ran[10] || !ran[20] {
		t.Error("events at or before horizon did not run")
	}
	if ran[30] {
		t.Error("event beyond horizon ran")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	// Resuming past the horizon picks up the rest.
	e.RunAll()
	if !ran[30] {
		t.Error("resumed run did not execute remaining event")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 3 {
		t.Errorf("executed %d events after Stop at 3", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.RunAll()
}

func TestScheduleAfterNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.ScheduleAfter(-1, func() {})
}

func TestEngineExecutedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	if n := e.RunAll(); n != 7 {
		t.Errorf("Run returned %d, want 7", n)
	}
	if e.Executed != 7 {
		t.Errorf("Executed = %d, want 7", e.Executed)
	}
}

func TestEngineCascade(t *testing.T) {
	// Events scheduling further events drain fully.
	e := NewEngine()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 100 {
			e.ScheduleAfter(1, step)
		}
	}
	e.Schedule(0, step)
	e.RunAll()
	if depth != 100 {
		t.Errorf("cascade depth %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Errorf("Now() = %v, want 99", e.Now())
	}
}

// TestQueueHeapProperty drives the raw queue with random pushes and pops and
// checks the pop order is sorted by (time, seq).
func TestQueueHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q eventQueue
		for i, v := range times {
			q.push(event{at: Time(v), seq: uint64(i)})
		}
		var popped []event
		for q.Len() > 0 {
			popped = append(popped, q.pop())
		}
		sorted := sort.SliceIsSorted(popped, func(i, j int) bool {
			if popped[i].at != popped[j].at {
				return popped[i].at < popped[j].at
			}
			return popped[i].seq < popped[j].seq
		})
		return sorted && len(popped) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	r := NewRNG(77)
	var q eventQueue
	seq := uint64(0)
	last := Time(-1)
	for round := 0; round < 1000; round++ {
		if q.Len() == 0 || r.Bool() {
			// Push an event no earlier than the last popped time to mimic
			// engine usage.
			at := last + Time(r.Intn(100))
			if at < 0 {
				at = 0
			}
			q.push(event{at: at, seq: seq})
			seq++
		} else {
			ev := q.pop()
			if ev.at < last {
				t.Fatalf("pop went backwards: %v after %v", ev.at, last)
			}
			last = ev.at
		}
	}
}
