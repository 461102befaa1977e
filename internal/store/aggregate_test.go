package store

import (
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
)

func sampleAggregate() *Aggregate {
	return &Aggregate{
		Triggered: 837,
		Events:    1404900,
		Horizon:   987654321,
		ElapsedNs: 42_000_000,
		IntraSkew: stats.Summary{N: 1000, Min: 0, Q5: 0.1, Avg: 0.5029840000000003, Q95: 1.2, Max: 2, Std: 0.31},
		InterSkew: stats.Summary{N: 420, Min: -3.5, Q5: -1, Avg: 0.25, Q95: 1, Max: 3.5, Std: 1.7},
	}
}

func TestAggregateRoundTrip(t *testing.T) {
	for name, a := range map[string]*Aggregate{
		"zero":   {},
		"sample": sampleAggregate(),
		"extremes": {
			Triggered: math.MaxUint32,
			Events:    math.MaxUint64,
			Horizon:   math.MinInt64,
			ElapsedNs: 1,
			IntraSkew: stats.Summary{N: 1, Min: math.Inf(-1), Max: math.Inf(1), Avg: math.NaN()},
		},
	} {
		enc := EncodeAggregate(a)
		got, err := DecodeAggregate(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.Triggered != a.Triggered || got.Events != a.Events ||
			got.Horizon != a.Horizon || got.ElapsedNs != a.ElapsedNs {
			t.Fatalf("%s: scalar fields changed: got %+v want %+v", name, got, a)
		}
		for i, pair := range [][2]stats.Summary{{got.IntraSkew, a.IntraSkew}, {got.InterSkew, a.InterSkew}} {
			if !summariesBitEqual(pair[0], pair[1]) {
				t.Fatalf("%s: summary %d changed: got %+v want %+v", name, i, pair[0], pair[1])
			}
		}
	}
}

// summariesBitEqual compares summaries by float bit pattern so NaN
// round-trips count as equal (the codec preserves the exact bits).
func summariesBitEqual(a, b stats.Summary) bool {
	if a.N != b.N {
		return false
	}
	av := [...]float64{a.Min, a.Q5, a.Avg, a.Q95, a.Max, a.Std}
	bv := [...]float64{b.Min, b.Q5, b.Avg, b.Q95, b.Max, b.Std}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	return true
}

func TestAggregateDecodeRejectsCorruption(t *testing.T) {
	enc := EncodeAggregate(sampleAggregate())

	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)-1] ^= 0x01
	if _, err := DecodeAggregate(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrCorrupt", err)
	}

	if _, err := DecodeAggregate(enc[:len(enc)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation: got %v, want ErrCorrupt", err)
	}

	trailing := append(append([]byte(nil), enc...), 0)
	if _, err := DecodeAggregate(trailing); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: got %v, want ErrCorrupt", err)
	}

	wrongMagic := append([]byte(nil), enc...)
	copy(wrongMagic, entryMagic)
	if _, err := DecodeAggregate(wrongMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong magic: got %v, want ErrCorrupt", err)
	}
}
