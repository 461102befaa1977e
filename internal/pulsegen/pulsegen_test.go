package pulsegen

import (
	"testing"
	"testing/quick"

	"repro/internal/delay"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/theory"
)

// ppmDrift is a realistic oscillator drift bound (1000 ppm).
var ppmDrift = theory.Drift{Num: 1001, Den: 1000}

func baseConfig() Config {
	return Config{
		N:      20,
		Period: 300 * sim.Nanosecond,
		Pulses: 10,
		Bounds: delay.Paper,
		Drift:  ppmDrift,
		Seed:   1,
	}
}

func TestValidation(t *testing.T) {
	bad := baseConfig()
	bad.N = 2
	if _, err := Run(bad); err == nil {
		t.Error("N=2 accepted")
	}
	bad = baseConfig()
	bad.Faulty = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if _, err := Run(bad); err == nil {
		t.Error("f ≥ n/2 accepted")
	}
	bad = baseConfig()
	bad.Period = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero period accepted")
	}
	bad = baseConfig()
	bad.Faulty = []int{25}
	if _, err := Run(bad); err == nil {
		t.Error("out-of-range faulty index accepted")
	}
	bad = baseConfig()
	bad.AssumedFaults = 1
	bad.Faulty = []int{0, 1}
	if _, err := Run(bad); err == nil {
		t.Error("actual faults above assumed bound accepted")
	}
}

func TestFaultFreeSkewBounded(t *testing.T) {
	res, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 10 {
		t.Fatalf("pulses = %d", len(res.Times))
	}
	// All correct sources fire every pulse within roughly one message
	// delay plus drift of each other; no accumulation across pulses.
	for k, s := range res.Skew {
		if s > 2*delay.Paper.Max {
			t.Errorf("pulse %d skew %v exceeds 2d+", k, s)
		}
	}
	if res.Skew[9] > res.Skew[1]+delay.Paper.Max {
		t.Errorf("skew accumulates: pulse 1 %v → pulse 9 %v", res.Skew[1], res.Skew[9])
	}
}

func TestSeparationNearPeriod(t *testing.T) {
	cfg := baseConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	minSep := res.MinSeparation()
	// Separation stays close to the nominal period (within skew+drift).
	if minSep < cfg.Period-2*delay.Paper.Max || minSep > cfg.Period+2*delay.Paper.Max {
		t.Errorf("min separation %v far from period %v", minSep, cfg.Period)
	}
}

func TestSilentByzantineTolerated(t *testing.T) {
	cfg := baseConfig()
	cfg.Faulty = []int{3, 11, 17}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Times {
		for _, i := range cfg.Faulty {
			if res.Times[k][i] != Missing {
				t.Fatalf("faulty source %d fired pulse %d", i, k)
			}
		}
		if res.Skew[k] > 3*delay.Paper.Max {
			t.Errorf("pulse %d skew %v with silent faults", k, res.Skew[k])
		}
	}
}

func TestEagerByzantineCannotForgePulses(t *testing.T) {
	cfg := baseConfig()
	cfg.Faulty = []int{0, 1}
	cfg.AssumedFaults = 2
	cfg.ByzantineEager = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Even with f Byzantine sources voting for every pulse at time 0, the
	// f+1 threshold means no correct source fires pulse k before roughly
	// k periods have elapsed.
	for k := range res.Times {
		lo := sim.MaxTime
		for i, tt := range res.Times[k] {
			if cfg.Faulty[0] == i || cfg.Faulty[1] == i {
				continue
			}
			lo = sim.MinTime(lo, tt)
		}
		floor := sim.Time(k) * (cfg.Period / 2) // generous causal floor
		if lo < floor {
			t.Errorf("pulse %d fired at %v, before causal floor %v (Byzantine forged a pulse?)", k, lo, floor)
		}
	}
}

func TestEagerByzantinePullForwardBounded(t *testing.T) {
	// Eager faults may legitimately accelerate pulses a little (their
	// votes count toward f+1 once one correct source fired), but skew must
	// stay bounded.
	cfg := baseConfig()
	cfg.Faulty = []int{5}
	cfg.AssumedFaults = 1
	cfg.ByzantineEager = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.MaxSkew(); s > 3*delay.Paper.Max {
		t.Errorf("max skew %v with eager Byzantine source", s)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Times {
		for i := range a.Times[k] {
			if a.Times[k][i] != b.Times[k][i] {
				t.Fatalf("nondeterministic at pulse %d source %d", k, i)
			}
		}
	}
}

func TestScheduleConversion(t *testing.T) {
	cfg := baseConfig()
	cfg.Faulty = []int{4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := res.Schedule()
	if sched.Pulses() != cfg.Pulses {
		t.Fatalf("schedule pulses = %d", sched.Pulses())
	}
	correct := func(c int) bool { return c != 4 }
	for k := 0; k < cfg.Pulses; k++ {
		if sched.PulseMin(k, correct) == sim.MaxTime {
			t.Fatalf("pulse %d has no correct firing time", k)
		}
		if sched.Times[k][4] != source.Silent {
			t.Error("faulty slot is not source.Silent")
		}
	}
}

func TestHigherDriftStillBounded(t *testing.T) {
	cfg := baseConfig()
	cfg.Drift = theory.PaperDrift // ϑ = 1.05, very coarse oscillators
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Skew bound ≈ P·(ϑ−1) + d+: with P = 300 ns and ϑ = 1.05 that is
	// ≈ 23 ns; allow slack.
	limit := sim.Scale(cfg.Period, 5, 100) + 2*delay.Paper.Max
	if s := res.MaxSkew(); s > limit {
		t.Errorf("max skew %v exceeds drift-derived bound %v", s, limit)
	}
}

// TestSkewBoundProperty fuzzes seeds and fault sets: the per-pulse skew of
// correct sources never exceeds the drift+delay envelope.
func TestSkewBoundProperty(t *testing.T) {
	f := func(seed uint64, faultPick uint8, eager bool) bool {
		cfg := baseConfig()
		cfg.Seed = seed
		cfg.ByzantineEager = eager
		nf := int(faultPick % 4)
		for i := 0; i < nf; i++ {
			cfg.Faulty = append(cfg.Faulty, (int(faultPick)+i*5)%cfg.N)
		}
		cfg.AssumedFaults = 4
		res, err := Run(cfg)
		if err != nil {
			return false
		}
		limit := sim.Scale(cfg.Period, cfg.Drift.Num-cfg.Drift.Den, cfg.Drift.Den) + 3*delay.Paper.Max
		return res.MaxSkew() <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
