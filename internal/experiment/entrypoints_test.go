package experiment_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	hex "repro"
	"repro/internal/delay"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
)

// TestEntryPointsComputeTheSameRun pins that a single-pulse run has one
// definition. For run i of a Spec, three entry points must agree exactly:
// experiment.RunOne, POST /v1/run with the spec's run-i seed, and
// hex.RunPulse over RunOne's fault plan and the offsets drawn from the
// seed's "offsets" stream.
func TestEntryPointsComputeTheSameRun(t *testing.T) {
	svc := service.New(service.Options{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const runs = 6
	for _, spec := range []experiment.Spec{
		{L: 12, W: 8, Scenario: source.Zero, Runs: runs},
		{L: 12, W: 8, Scenario: source.UniformDPlus, Faults: 1, FaultType: fault.Byzantine, Runs: runs},
		{L: 10, W: 8, Scenario: source.UniformDMinus, Faults: 2, FaultType: fault.FailSilent, HexPlus: true, Runs: runs},
	} {
		for i := 0; i < runs; i++ {
			name := fmt.Sprintf("%s/f%d-%s/plus=%t/run%d", spec.Scenario.Name(), spec.Faults, spec.FaultType, spec.HexPlus, i)
			out, err := experiment.RunOne(spec, i)
			if err != nil {
				t.Fatalf("%s: RunOne: %v", name, err)
			}
			seed := experiment.RunSeed(spec, i)
			wantIntra, wantInter := out.Wave.Summaries()

			// The served run whose seed is the spec's run-i seed.
			req := service.RunRequest{L: spec.L, W: spec.W, Scenario: spec.Scenario.Name(),
				Faults: spec.Faults, Seed: seed, HexPlus: spec.HexPlus}
			if spec.Faults > 0 {
				req.FaultType = spec.FaultType.String()
			}
			got := postRun(t, srv.URL, req)
			if got.Events != out.Res.Events || got.HorizonNs != out.Res.Horizon.Nanoseconds() ||
				got.Triggered != out.Wave.TriggeredCount() ||
				!slices.Equal(got.FaultyNodes, out.Plan.FaultyNodes()) ||
				got.IntraSkewNs != summaryJSON(wantIntra) || got.InterSkewNs != summaryJSON(wantInter) {
				t.Errorf("%s: /v1/run body %+v differs from RunOne (events %d, faulty %v, intra %+v, inter %+v)",
					name, got, out.Res.Events, out.Plan.FaultyNodes(), wantIntra, wantInter)
			}
			if spec.Faults > 0 && len(got.FaultyNodes) != spec.Faults {
				t.Errorf("%s: %d faulty nodes served, want %d", name, len(got.FaultyNodes), spec.Faults)
			}

			// The library facade over the same plan and offsets.
			offsets := source.Offsets(spec.Scenario, spec.W, delay.Paper,
				sim.NewRNG(sim.DeriveSeed(seed, "offsets")))
			rep, err := hex.RunPulse(hex.PulseConfig{Grid: out.Hex, Faults: out.Plan, Offsets: offsets, Seed: seed})
			if err != nil {
				t.Fatalf("%s: RunPulse: %v", name, err)
			}
			if !slices.Equal(rep.Wave.T, out.Wave.T) || !slices.Equal(rep.Wave.Excluded, out.Wave.Excluded) ||
				rep.Result.Events != out.Res.Events ||
				rep.IntraSummary != wantIntra || rep.InterSummary != wantInter {
				t.Errorf("%s: hex.RunPulse differs from RunOne (events %d vs %d)",
					name, rep.Result.Events, out.Res.Events)
			}
		}
	}
}

func postRun(t *testing.T, base string, req service.RunRequest) service.RunResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run %s = %d", body, resp.StatusCode)
	}
	var out service.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func summaryJSON(s stats.Summary) service.SummaryJSON {
	return service.SummaryJSON{Min: s.Min, Q5: s.Q5, Avg: s.Avg, Q95: s.Q95, Max: s.Max, N: s.N}
}
