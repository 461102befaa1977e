package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestMetricsPrometheusRoundTrip scrapes /metrics after real traffic: the
// page is served as text and shows the traffic, and the request and sim
// histograms carry observations. The exposition format is the metrics
// registry's writer test; the page's families, help text and order are
// TestMetricsPages' golden (internal/cluster).
func TestMetricsPrometheusRoundTrip(t *testing.T) {
	s := newTestService(t, Options{Workers: 2, Store: openStore(t, t.TempDir(), 0)})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	doRun(t, srv, `{"l":10,"w":8,"seed":5}`, http.StatusOK)
	resp, err := srv.Client().Post(srv.URL+"/v1/spec", "application/json",
		strings.NewReader(`{"l":10,"w":8,"runs":3,"seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec status = %d", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	page := readAll(t, resp)
	for _, want := range []string{
		`hexd_requests_total{endpoint="spec"} 1`,
		`hexd_request_seconds_count{endpoint="run"} 1`,
		"hexd_sim_runs_total 4",
	} {
		if !strings.Contains(page, want+"\n") {
			t.Errorf("metrics page lacks %q", want)
		}
	}
	for name, h := range map[string]*metrics.Histogram{
		"request_seconds{run}":  s.Metrics.Latency["run"],
		"request_seconds{spec}": s.Metrics.Latency["spec"],
		"sim_run_events":        s.Metrics.SimRunEvents,
		"sim_run_seconds":       s.Metrics.SimRunSeconds,
		"queue_depth_samples":   s.Metrics.QueueDepthSamples,
	} {
		if h.Count() == 0 {
			t.Errorf("histogram %s has no observations after traffic", name)
		}
	}
}
