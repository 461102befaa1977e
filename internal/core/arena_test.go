package core

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
)

// TestArenaQueueStorageRealTraffic runs three identical L50_W200 single
// pulses through one Arena and pins the event queue's retained storage
// under real traffic: at most 1.5 event slots per node — one sleep timer
// per node plus the near ring's small pool, since the time-0 guard checks
// are retired rather than filed — and no growth after the first run. A
// queue that keeps a per-slot array at each slot's past peak retains
// several times that.
func TestArenaQueueStorageRealTraffic(t *testing.T) {
	h := grid.MustHex(50, 200)
	cfg := Config{
		Graph:    h.Graph,
		Params:   DefaultParams(),
		Delay:    delay.Uniform{Bounds: delay.Paper},
		Faults:   fault.NewPlan(h.NumNodes()),
		Schedule: source.SinglePulse(make([]sim.Time, h.W)),
		Seed:     7,
	}
	a := NewArena()
	first := 0
	for run := 0; run < 3; run++ {
		if _, err := a.Run(cfg); err != nil {
			t.Fatal(err)
		}
		slots := a.nw.eng.RetainedEventSlots()
		per := float64(slots) / float64(h.NumNodes())
		t.Logf("run %d: %d event slots retained, %.2f per node", run, slots, per)
		if per > 1.5 {
			t.Fatalf("run %d: the queue retains %d event slots for %d nodes (%.2f per node), want <= 1.5",
				run, slots, h.NumNodes(), per)
		}
		if run == 0 {
			first = slots
		} else if slots != first {
			t.Fatalf("run %d: an identical run grew the queue's storage from %d to %d event slots", run, first, slots)
		}
	}
}
