package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at tiny op counts through the
// whole harness: child processes, setup, the timed loop, the body checks,
// the traced replay and the reports.
func TestSmokeAllWorkloads(t *testing.T) {
	plans := []plan{
		{Workload: "cold-small", Seed: 3, Ops: 40, Replay: 8, Verify: 2},
		{Workload: "warm-hits", Seed: 3, Ops: 400, Keys: 64, Replay: 100, Verify: 2},
		{Workload: "large-run", Seed: 3, Ops: 1, Replay: 1, Verify: 1},
		// Two batches: one full group commit and one of 8 units.
		{Workload: "campaign-agg", Seed: 3, Ops: 264, SweepUnits: 264, Replay: 264, Verify: 2},
	}
	dir := t.TempDir()
	traces := filepath.Join(dir, "traces")
	reports, err := measure(plans, 1, true, dir, traces, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		r := reports[p.Workload]
		if !r.Correct {
			t.Errorf("%s: incorrect: %v", p.Workload, r.Problems)
		}
		if r.Attempted != 2*p.Ops || r.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d, want %d and 0", p.Workload, r.Attempted, r.Failed, 2*p.Ops)
		}
		for _, m := range endToEnd {
			if v := r.EndToEnd[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", p.Workload, m.Name, v)
			}
		}
		for _, m := range perLayer {
			v, ok := r.PerLayer[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: %s = %v (present %v)", p.Workload, m.Name, v, ok)
			}
			// Every layer's time is measured on every workload; only GC
			// may not run in a rep this short.
			if (m.Unit == "us" || m.Unit == "ms" || m.Unit == "ns") && v == 0 && m.Name != "process.gc_pause_ms" {
				t.Errorf("%s: %s is 0", p.Workload, m.Name)
			}
		}
		wantFsyncs := 2.0 // one Put per computed result
		switch p.Workload {
		case "warm-hits":
			wantFsyncs = 0
		case "campaign-agg":
			// Two group commits plus the job record's Put.
			wantFsyncs = float64(2*2+2) / float64(p.Ops)
		}
		if got := r.Counts["fsyncs_per_op"]; !sameFloat(got, wantFsyncs) {
			t.Errorf("%s: fsyncs_per_op = %v, want %v", p.Workload, got, wantFsyncs)
		}
		if fi, err := os.Stat(filepath.Join(traces, "trace-"+p.Workload+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no trace file (%v)", p.Workload, err)
		}
		for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			raw, err := json.Marshal(resultLine(r, traced))
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   bool
				Attempted int
				Metrics   map[string]lineMetric
			}
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != r.Attempted || len(line.Metrics) != len(defs) {
				t.Errorf("%s: output line %s", p.Workload, raw)
			}
		}
	}
}
