package cluster

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs/export"
	"repro/internal/service"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the testdata/ goldens from the current code")

// TestMetricsPages pins both /metrics pages hexd serves: a backend wired
// as cmd/hexd wires one (store, jobs manager, OTLP exporter) and a router
// wired as `hexd -router` wires one (jobs manager, exporter). Sample
// values are masked, so the golden files hold each page's families,
// types, help text, label sets and order, and nothing that traffic moves.
// An intended change reruns the test with -update and names every changed
// line in the changelog.
func TestMetricsPages(t *testing.T) {
	// The exporter needs an endpoint to exist; no span is queued, so it
	// never dials this closed port.
	exp := export.New(export.Options{Endpoint: "http://127.0.0.1:1"})
	defer exp.Close(context.Background())

	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{Store: st, Logger: quietLogger(), Exporter: exp})
	defer svc.Close()
	mgr := jobs.NewManager(jobs.Options{
		Runner: svc, Service: svc.Options(), Store: st,
		Logger: quietLogger(), Trace: svc.Ring(), Exporter: exp, Metrics: svc.Metrics.Registry,
	})
	defer mgr.Close()
	exp.RegisterMetrics(svc.Metrics.Registry)
	checkPage(t, "testdata/metrics_backend.txt", svc.Handler())

	// Closed loopback ports keep the peer labels byte-stable, and the
	// hour-long interval keeps the probe loop idle.
	rt, err := New(Options{
		Peers:          []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		HealthInterval: time.Hour,
		Logger:         quietLogger(),
		Exporter:       exp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rmgr := jobs.NewManager(jobs.Options{
		Runner: rt, Logger: quietLogger(), Trace: rt.Ring(), Exporter: exp, Metrics: rt.Metrics.Registry,
	})
	defer rmgr.Close()
	exp.RegisterMetrics(rt.Metrics.Registry)
	checkPage(t, "testdata/metrics_router.txt", rt.Handler())
}

// checkPage scrapes h's /metrics, masks every sample value with "_" and
// compares the page with the golden file.
func checkPage(t *testing.T, golden string, h http.Handler) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	for i, line := range lines {
		if j := strings.LastIndexByte(line, ' '); j >= 0 && !strings.HasPrefix(line, "#") {
			lines[i] = line[:j] + " _"
		}
	}
	checkGolden(t, golden, strings.Join(lines, "\n")+"\n")
}

// checkGolden compares got with the golden file line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("%s: line %d differs (rerun with -update if intended)\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}
