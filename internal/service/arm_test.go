package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/obs"
)

// TestArmRerunReplaysServedRun pins that the arm policy's re-run is the
// served run: it re-runs the served experiment.Pulse, so its recorder must
// capture exactly the event stream of the run that produced the served
// body. The served stream comes from a ?trace=1 request, whose own
// recorder is embedded once the policy fires; the re-run's stream comes
// from the same request on a fresh service without ?trace=1. The grid is
// small enough that both recorders hold the whole run, so both dumps are
// complete and get the full audit.
func TestArmRerunReplaysServedRun(t *testing.T) {
	// SkewMarginPct -100 arms on any measured skew: every run fires.
	opts := Options{
		Workers: 1,
		Arm:     obs.NewArmer(obs.ArmPolicy{OnSkew: true, SkewMarginPct: -100}),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	flight := func(path, body string) (*obs.FlightDump, *Service) {
		t.Helper()
		s := newTestService(t, opts)
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		resp := postRun(t, srv, path, "rid-arm", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status = %d (body %q)", path, body, resp.StatusCode, readAll(t, resp))
		}
		resp.Body.Close()
		snap := findTrace(t, srv, "rid-arm")
		if snap == nil || snap.Flight == nil {
			t.Fatalf("%s %s: no flight dump in the debug ring", path, body)
		}
		if !hasNote(snap.Notes, "arm:skew") {
			t.Fatalf("%s %s: notes = %v, want arm:skew", path, body, snap.Notes)
		}
		return snap.Flight, s
	}
	for _, output := range []string{"stats", "agg"} {
		body := fmt.Sprintf(`{"l":8,"w":6,"scenario":"iii","faults":1,"seed":3,"output":%q}`, output)
		served, tracedSvc := flight("/v1/run?trace=1", body)
		rerun, plainSvc := flight("/v1/run", body)
		if got := tracedSvc.Metrics.ArmReruns.Value(); got != 0 {
			t.Errorf("%s: pre-armed request re-ran %d times, want 0", output, got)
		}
		if got := plainSvc.Metrics.ArmReruns.Value(); got != 1 {
			t.Errorf("%s: armed request re-ran %d times, want 1", output, got)
		}
		for name, d := range map[string]*obs.FlightDump{"served": served, "re-run": rerun} {
			if !d.Complete || !d.AuditOK || d.Captured == 0 || len(d.Events) != d.Captured {
				t.Fatalf("%s: %s dump complete=%t audit_ok=%t (%s) captured=%d embedded=%d",
					output, name, d.Complete, d.AuditOK, d.AuditError, d.Captured, len(d.Events))
			}
		}
		if !slices.Equal(served.Events, rerun.Events) {
			t.Errorf("%s: re-run captured %d events that differ from the served run's %d",
				output, len(rerun.Events), len(served.Events))
		}
	}
}
