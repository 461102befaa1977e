package source

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/sim"
)

func TestZeroOffsets(t *testing.T) {
	off := Offsets(Zero, 20, delay.Paper, nil)
	if len(off) != 20 {
		t.Fatalf("len = %d", len(off))
	}
	for i, v := range off {
		if v != 0 {
			t.Errorf("offset[%d] = %v", i, v)
		}
	}
}

func TestUniformOffsetsBounds(t *testing.T) {
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		for _, v := range Offsets(UniformDMinus, 20, delay.Paper, rng) {
			if v < 0 || v > delay.Paper.Min {
				t.Fatalf("scenario (ii) offset %v out of [0, d−]", v)
			}
		}
		for _, v := range Offsets(UniformDPlus, 20, delay.Paper, rng) {
			if v < 0 || v > delay.Paper.Max {
				t.Fatalf("scenario (iii) offset %v out of [0, d+]", v)
			}
		}
	}
}

func TestRampOffsets(t *testing.T) {
	b := delay.Paper
	off := Offsets(Ramp, 20, b, nil)
	// Up by d+ for i ≤ W/2, then down by d+.
	for i := 1; i < 20; i++ {
		diff := off[i] - off[i-1]
		if i <= 10 {
			if diff != b.Max {
				t.Errorf("ramp up at %d: diff %v", i, diff)
			}
		} else if diff != -b.Max {
			t.Errorf("ramp down at %d: diff %v", i, diff)
		}
	}
	// Neighbor skew across the wrap (col 19 → col 0) must be ≤ d+ as well:
	// off[19] = d+ (one step above zero), so |off[19]−off[0]| = d+.
	if d := off[19] - off[0]; d != b.Max {
		t.Errorf("wrap skew = %v, want d+", d)
	}
	// Peak at W/2.
	if off[10] != 10*b.Max {
		t.Errorf("peak = %v", off[10])
	}
}

func TestSpread(t *testing.T) {
	if Spread(nil) != 0 {
		t.Error("empty spread")
	}
	if s := Spread([]sim.Time{5, 1, 9, 3}); s != 8 {
		t.Errorf("Spread = %v", s)
	}
	off := Offsets(Ramp, 20, delay.Paper, nil)
	if Spread(off) != 10*delay.Paper.Max {
		t.Errorf("ramp spread = %v", Spread(off))
	}
}

func TestScheduleSeparation(t *testing.T) {
	rng := sim.NewRNG(2)
	sep := sim.Time(264080)
	s := NewSchedule(UniformDPlus, 20, 10, delay.Paper, sep, rng)
	if s.Pulses() != 10 {
		t.Fatalf("Pulses = %d", s.Pulses())
	}
	for k := 0; k < 9; k++ {
		gap := s.PulseMin(k+1, nil) - s.PulseMax(k, nil)
		if gap < sep {
			t.Errorf("pulse %d→%d separation %v < %v", k, k+1, gap, sep)
		}
	}
}

func TestScheduleEnd(t *testing.T) {
	s := NewSchedule(Zero, 5, 3, delay.Paper, 100, nil)
	if s.End() != s.PulseMax(2, nil) {
		t.Errorf("End = %v", s.End())
	}
	// A silent source's slots do not stretch the schedule.
	want := s.End()
	for k := range s.Times {
		s.Times[k][2] = Silent
	}
	if s.End() != want {
		t.Errorf("End with a silent source = %v, want %v", s.End(), want)
	}
}

func TestSinglePulse(t *testing.T) {
	s := SinglePulse([]sim.Time{1, 2, 3})
	if s.Pulses() != 1 || s.PulseMin(0, nil) != 1 || s.PulseMax(0, nil) != 3 {
		t.Error("SinglePulse wrapping broken")
	}
}

func TestPulseMinMaxWithFaultFilter(t *testing.T) {
	s := SinglePulse([]sim.Time{10, 1, 20})
	correct := func(c int) bool { return c != 1 } // exclude the early column
	if m := s.PulseMin(0, correct); m != 10 {
		t.Errorf("filtered min = %v", m)
	}
	if m := s.PulseMax(0, correct); m != 20 {
		t.Errorf("filtered max = %v", m)
	}
}

func TestParseNames(t *testing.T) {
	for _, sc := range Scenarios {
		got, err := Parse(sc.Name())
		if err != nil || got != sc {
			t.Errorf("Parse(Name(%v)) = %v, %v", sc, got, err)
		}
	}
	for in, want := range map[string]Scenario{"i": Zero, "ii": UniformDMinus, "iii": UniformDPlus, "iv": Ramp} {
		got, err := Parse(in)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Error("Parse accepted garbage")
	}
}

func TestScheduleRedrawsRandomOffsets(t *testing.T) {
	rng := sim.NewRNG(8)
	s := NewSchedule(UniformDPlus, 10, 2, delay.Paper, 1000, rng)
	// The two pulses should not have identical offset patterns.
	base0 := s.PulseMin(0, nil)
	base1 := s.PulseMin(1, nil)
	same := true
	for i := range s.Times[0] {
		if s.Times[0][i]-base0 != s.Times[1][i]-base1 {
			same = false
			break
		}
	}
	if same {
		t.Error("random scenario reused the same offsets for both pulses")
	}
}
