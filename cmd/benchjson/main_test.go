package main

import (
	"regexp"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkPulsePropagation/L100_W40-4   100  1000000 ns/op  3500000 events/s  120 B/op  3 allocs/op
BenchmarkPulsePropagation/L100_W40-4   100  1100000 ns/op  3300000 events/s  120 B/op  3 allocs/op
BenchmarkSweep-4                       10   9000000 ns/op  512 B/op  10 allocs/op
PASS
`

func TestConvertAggregates(t *testing.T) {
	rep, err := convert(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU != "Intel(R) Xeon(R) CPU @ 2.10GHz" || rep.Goos != "linux" {
		t.Fatalf("header fields not captured: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkPulsePropagation/L100_W40" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", b.Name)
	}
	if b.Runs != 2 {
		t.Fatalf("Runs = %d, want 2", b.Runs)
	}
	ns := b.Metrics["ns/op"]
	if ns == nil || ns.Mean != 1050000 || ns.Min != 1000000 || ns.Max != 1100000 {
		t.Fatalf("ns/op aggregation wrong: %+v", ns)
	}
	ev := b.Metrics["events/s"]
	if ev == nil || ev.Mean != 3400000 {
		t.Fatalf("events/s aggregation wrong: %+v", ev)
	}
}

// report builds a single-benchmark report with the given headline means.
func report(name string, nsOp, eventsPerSec, bOp, allocs float64) *Report {
	return &Report{Benchmarks: []*Benchmark{{
		Name: name,
		Runs: 1,
		Metrics: map[string]*Metric{
			"ns/op":     {Mean: nsOp},
			"events/s":  {Mean: eventsPerSec},
			"B/op":      {Mean: bOp},
			"allocs/op": {Mean: allocs},
		},
	}}}
}

func TestCompareImprovementPasses(t *testing.T) {
	oldRep := report("BenchmarkX", 1000, 1e6, 100, 5)
	newRep := report("BenchmarkX", 700, 1.4e6, 50, 2)
	var sb strings.Builder
	regressed := writeComparison(&sb, oldRep, newRep, 5, nil)
	if len(regressed) != 0 {
		t.Fatalf("improvement flagged as regression: %v\n%s", regressed, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"X", "ns/op", "events/s", "B/op", "allocs/op", "-30.0%", "+40.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareFlagsTimingRegression(t *testing.T) {
	oldRep := report("BenchmarkX", 1000, 1e6, 100, 5)
	// ns/op up 10%, events/s down 10%: both beyond a 5% gate.
	newRep := report("BenchmarkX", 1100, 0.9e6, 100, 5)
	var sb strings.Builder
	regressed := writeComparison(&sb, oldRep, newRep, 5, nil)
	if len(regressed) != 1 || regressed[0] != "BenchmarkX" {
		t.Fatalf("regression not flagged: %v\n%s", regressed, sb.String())
	}
	// The same delta passes a looser gate.
	regressed = writeComparison(&strings.Builder{}, oldRep, newRep, 15, nil)
	if len(regressed) != 0 {
		t.Fatalf("regression within a 15%% gate was flagged: %v", regressed)
	}
	// And is reported but not gated when the gate is disabled.
	regressed = writeComparison(&strings.Builder{}, oldRep, newRep, 0, nil)
	if len(regressed) != 0 {
		t.Fatalf("disabled gate still flagged: %v", regressed)
	}
}

func TestCompareMemoryOnlyRegressionNotGated(t *testing.T) {
	oldRep := report("BenchmarkX", 1000, 1e6, 100, 5)
	// Allocations doubled but timing held: the gate covers timing only.
	newRep := report("BenchmarkX", 1000, 1e6, 200, 10)
	regressed := writeComparison(&strings.Builder{}, oldRep, newRep, 5, nil)
	if len(regressed) != 0 {
		t.Fatalf("memory-only delta tripped the timing gate: %v", regressed)
	}
}

func TestCompareDisjointBenchmarksListed(t *testing.T) {
	oldRep := report("BenchmarkGone", 1000, 1e6, 100, 5)
	newRep := report("BenchmarkNew", 900, 1.1e6, 100, 5)
	var sb strings.Builder
	regressed := writeComparison(&sb, oldRep, newRep, 5, nil)
	if len(regressed) != 0 {
		t.Fatalf("disjoint benchmarks flagged: %v", regressed)
	}
	out := sb.String()
	if !strings.Contains(out, "Gone") || !strings.Contains(out, "New") {
		t.Fatalf("benchmarks present on only one side were dropped:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing-metric placeholder absent:\n%s", out)
	}
}

func TestConvertRecordsRunConditions(t *testing.T) {
	text := `goos: linux
BenchmarkPulsePropagation/L100_W50-8  3  8000000 ns/op  3.6e6 events/s
BenchmarkPulsePropagation/L200_W100-8  3  30000000 ns/op  3.5e6 events/s
BenchmarkCampaign/batched-8  3  50000000 ns/op  6.9e6 events/s
PASS
`
	rep, err := convert(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gomaxprocs != 8 {
		t.Fatalf("Gomaxprocs = %d, want 8", rep.Gomaxprocs)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("converted %d benchmarks, want 3", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].Name != "BenchmarkPulsePropagation/L100_W50" {
		t.Fatalf("procs suffix handling broke the name: %q", rep.Benchmarks[0].Name)
	}
}

func TestConvertDefaultsGomaxprocsToOne(t *testing.T) {
	rep, err := convert(strings.NewReader("BenchmarkX 10 100 ns/op\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gomaxprocs != 1 {
		t.Fatalf("Gomaxprocs = %d, want 1 (no -N suffix)", rep.Gomaxprocs)
	}
}

func TestCompareGateFilter(t *testing.T) {
	oldRep := report("BenchmarkCampaign/unbatched", 1000, 1e6, 100, 5)
	oldRep.Benchmarks = append(oldRep.Benchmarks,
		report("BenchmarkPulsePropagation/L100_W50", 1000, 1e6, 100, 5).Benchmarks...)
	newRep := report("BenchmarkCampaign/unbatched", 1500, 0.7e6, 100, 5) // -50% timing
	newRep.Benchmarks = append(newRep.Benchmarks,
		report("BenchmarkPulsePropagation/L100_W50", 1020, 0.98e6, 100, 5).Benchmarks...) // -2%

	// Ungated: the campaign regression fails.
	if regressed := writeComparison(&strings.Builder{}, oldRep, newRep, 5, nil); len(regressed) != 1 {
		t.Fatalf("ungated comparison: %v", regressed)
	}
	// Gated to the core benchmarks: the campaign regression informs but
	// does not fail; the core 2% stays inside the gate.
	gate := regexp.MustCompile(`^BenchmarkPulsePropagation`)
	var sb strings.Builder
	if regressed := writeComparison(&sb, oldRep, newRep, 5, gate); len(regressed) != 0 {
		t.Fatalf("gate-filtered comparison flagged: %v", regressed)
	}
	// The table still shows the filtered-out benchmark.
	if !strings.Contains(sb.String(), "Campaign/unbatched") {
		t.Fatalf("gate filter dropped a benchmark from the table:\n%s", sb.String())
	}
}

func TestCompareMissingMetricSkipped(t *testing.T) {
	oldRep := report("BenchmarkX", 1000, 1e6, 100, 5)
	newRep := &Report{Benchmarks: []*Benchmark{{
		Name:    "BenchmarkX",
		Metrics: map[string]*Metric{"ns/op": {Mean: 1500}},
	}}}
	var sb strings.Builder
	regressed := writeComparison(&sb, oldRep, newRep, 5, nil)
	if len(regressed) != 1 {
		t.Fatalf("ns/op regression with missing events/s not flagged: %v\n%s", regressed, sb.String())
	}
}
