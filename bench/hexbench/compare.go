package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkDef is the part of BENCHMARK.json -compare reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict compares one metric of one workload: base a, candidate b. A side
// whose own interquartile spread exceeds the bound cannot resolve a
// difference of that size, so the metric is unresolved rather than
// unchanged.
func verdict(a, b summary, bound float64, better string) string {
	if a.spread() > bound || b.spread() > bound {
		return "unresolved"
	}
	rel := ratio(b.Value-a.Value, a.Value)
	if better == "lower" {
		rel = -rel
	}
	switch {
	case rel < -bound:
		return "worse"
	case rel > bound:
		return "better"
	}
	return "same"
}

// compareFiles prints a verdict per (metric, workload) for result files a
// and b under the bounds of the benchmark definition at benchPath. It
// reports false when an end-to-end metric got worse beyond its bound, an
// exact count changed, or either side failed its correctness check.
func compareFiles(benchPath, aPath, bPath string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readResult(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResult(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A %s: commit %s, seed %d, %d s, nproc %d\n", aPath, a.Header.Commit, a.Header.Seed, a.Header.Seconds, a.Header.Nproc)
	fmt.Fprintf(w, "B %s: commit %s, seed %d, %d s, nproc %d\n", bPath, b.Header.Commit, b.Header.Seed, b.Header.Seconds, b.Header.Nproc)
	fmt.Fprintf(w, "%-13s %-22s %13s %13s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A", "B", "delta", "sprd A", "sprd B", "bound", "verdict")
	ok := true
	for _, wl := range workloads {
		ra, inA := a.Workloads[wl.name]
		rb, inB := b.Workloads[wl.name]
		if !inA || !inB {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-13s correctness: A %v, B %v\n", wl.name, ra.Correct, rb.Correct)
			ok = false
		}
		for _, m := range def.EndToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(sa, sb, m.Bound, m.Better)
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-22s %13.6g %13.6g %7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, sa.Value, sb.Value, 100*ratio(sb.Value-sa.Value, sa.Value),
				100*sa.spread(), 100*sb.spread(), 100*m.Bound, v)
		}
		if ra.Plan != rb.Plan {
			fmt.Fprintf(w, "%-13s plans differ; exact counts not compared\n", wl.name)
			continue
		}
		for _, k := range exactCounts {
			ca, okA := ra.Counts[k]
			cb, okB := rb.Counts[k]
			if !okA || !okB {
				continue
			}
			v := "same"
			if !sameFloat(ca, cb) {
				v, ok = "changed", false
			}
			fmt.Fprintf(w, "%-13s %-22s %13.6g %13.6g %40s  %s\n", wl.name, k, ca, cb, "exact", v)
		}
	}
	return ok, nil
}
