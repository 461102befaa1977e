// Package source generates layer-0 pulse schedules: the synchronized (but
// skewed) triggering times of the clock-source nodes at the bottom of the
// HEX grid, following the four skew scenarios of the paper's evaluation
// (Section 4.2) and the pulse-separation requirement of Condition 2.
package source

import (
	"fmt"
	"strings"

	"repro/internal/delay"
	"repro/internal/sim"
)

// Scenario selects the layer-0 skew pattern. The four values correspond to
// scenarios (i)–(iv) of Table 1.
type Scenario int

const (
	// Zero: all layer-0 nodes trigger simultaneously (σ0 = 0, Δ0 = 0).
	Zero Scenario = iota
	// UniformDMinus: offsets uniform in [0, d−] (σ0 ≈ d−, Δ0 = 0).
	UniformDMinus
	// UniformDPlus: offsets uniform in [0, d+] (σ0 ≈ d+, Δ0 ≈ ε); the
	// paper's model of an average-case layer-0 clock generation scheme.
	UniformDPlus
	// Ramp: offsets ramp up by d+ per column until W/2 and down after
	// (σ0 = d+, Δ0 ≈ Wε/2); the worst-case input of a layer-0 scheme
	// with neighbor skew bound d+.
	Ramp
)

// Scenarios lists all four scenarios in the paper's order.
var Scenarios = []Scenario{Zero, UniformDMinus, UniformDPlus, Ramp}

// String returns the paper's description of the scenario.
func (s Scenario) String() string {
	switch s {
	case Zero:
		return "0"
	case UniformDMinus:
		return "random in [0,d-]"
	case UniformDPlus:
		return "random in [0,d+]"
	case Ramp:
		return "ramp d+"
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// Name returns a short machine-friendly name ("zero", "udminus", "udplus",
// "ramp").
func (s Scenario) Name() string {
	switch s {
	case Zero:
		return "zero"
	case UniformDMinus:
		return "udminus"
	case UniformDPlus:
		return "udplus"
	case Ramp:
		return "ramp"
	}
	return fmt.Sprintf("scenario%d", int(s))
}

// Parse converts a name accepted by Name (case-insensitive, also "i".."iv")
// back to a Scenario.
func Parse(name string) (Scenario, error) {
	switch strings.ToLower(name) {
	case "zero", "i", "0":
		return Zero, nil
	case "udminus", "ii":
		return UniformDMinus, nil
	case "udplus", "iii":
		return UniformDPlus, nil
	case "ramp", "iv":
		return Ramp, nil
	}
	return 0, fmt.Errorf("source: unknown scenario %q", name)
}

// Offsets returns the layer-0 triggering offsets t0,i, i ∈ [W], for one
// pulse of the given scenario. Random scenarios consume rng; deterministic
// ones ignore it (and accept rng == nil).
func Offsets(s Scenario, w int, b delay.Bounds, rng *sim.RNG) []sim.Time {
	t := make([]sim.Time, w)
	switch s {
	case Zero:
		// all zero
	case UniformDMinus:
		for i := range t {
			t[i] = rng.TimeIn(0, b.Min)
		}
	case UniformDPlus:
		for i := range t {
			t[i] = rng.TimeIn(0, b.Max)
		}
	case Ramp:
		// t0,i+1 = t0,i + d+ for 0 ≤ i < W/2 and t0,i+1 = t0,i − d+ for
		// W/2 ≤ i < W−1 (Section 4.2).
		for i := 1; i < w; i++ {
			if i <= w/2 {
				t[i] = t[i-1] + b.Max
			} else {
				t[i] = t[i-1] - b.Max
			}
		}
	default:
		panic(fmt.Sprintf("source: unknown scenario %d", int(s)))
	}
	return t
}

// Spread returns max(offsets) − min(offsets).
func Spread(offsets []sim.Time) sim.Time {
	if len(offsets) == 0 {
		return 0
	}
	lo, hi := offsets[0], offsets[0]
	for _, t := range offsets[1:] {
		lo, hi = sim.MinTime(lo, t), sim.MaxOf(hi, t)
	}
	return hi - lo
}

// Schedule is a complete multi-pulse layer-0 firing plan: Times[k][i] is the
// triggering time of the layer-0 node in column i for pulse k.
type Schedule struct {
	Times [][]sim.Time
}

// Silent fills the slots of a source that never fires: a far-future time
// that no horizon reaches. End ignores it, and the fault plan marks the
// source faulty, so a run never schedules it.
const Silent = sim.MaxTime / 2

// NewSchedule builds a schedule of `pulses` pulses with per-pulse offsets
// from the scenario, spaced so that consecutive pulses have separation time
// at least sep: t(k+1)min ≥ t(k)max + sep (Condition 2). Random scenarios
// redraw offsets each pulse.
func NewSchedule(s Scenario, w, pulses int, b delay.Bounds, sep sim.Time, rng *sim.RNG) *Schedule {
	sched := &Schedule{Times: make([][]sim.Time, pulses)}
	base := sim.Time(0)
	for k := 0; k < pulses; k++ {
		off := Offsets(s, w, b, rng)
		times := make([]sim.Time, w)
		var hi sim.Time
		for i, o := range off {
			times[i] = base + o
			if times[i] > hi {
				hi = times[i]
			}
		}
		sched.Times[k] = times
		base = hi + sep
	}
	return sched
}

// SinglePulse wraps one set of offsets as a one-pulse schedule.
func SinglePulse(offsets []sim.Time) *Schedule {
	return &Schedule{Times: [][]sim.Time{offsets}}
}

// Pulses returns the number of pulses in the schedule.
func (s *Schedule) Pulses() int { return len(s.Times) }

// PulseMin returns the minimum triggering time of pulse k over the given
// correct columns (all columns if correct == nil).
func (s *Schedule) PulseMin(k int, correct func(col int) bool) sim.Time {
	lo := sim.MaxTime
	for i, t := range s.Times[k] {
		if correct != nil && !correct(i) {
			continue
		}
		if t < lo {
			lo = t
		}
	}
	return lo
}

// PulseMax returns the maximum triggering time of pulse k over the given
// correct columns (all columns if correct == nil).
func (s *Schedule) PulseMax(k int, correct func(col int) bool) sim.Time {
	hi := sim.Time(-1 << 62)
	for i, t := range s.Times[k] {
		if correct != nil && !correct(i) {
			continue
		}
		if t > hi {
			hi = t
		}
	}
	return hi
}

// End returns the latest triggering time in the schedule, ignoring Silent
// slots.
func (s *Schedule) End() sim.Time {
	var hi sim.Time
	for _, times := range s.Times {
		for _, t := range times {
			if t != Silent && t > hi {
				hi = t
			}
		}
	}
	return hi
}
