package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/export"
	"repro/internal/service"
)

// TestRouterMetricsPrometheusLint scrapes the router's /metrics page,
// which carries the hexd_cluster_* families and, declared in the same
// registry, the hexd_sweep_* (jobs manager) and hexd_otlp_* (exporter)
// families, after traffic on both planes. The exposition format is the
// metrics registry's writer test; the page's families and order are
// TestMetricsPages' golden.
func TestRouterMetricsPrometheusLint(t *testing.T) {
	col := &otlpCollector{}
	colSrv := httptest.NewServer(col.handler())
	defer colSrv.Close()
	exp := export.New(export.Options{Endpoint: colSrv.URL, FlushInterval: 20 * time.Millisecond})
	defer exp.Close(context.Background())

	rt, mgr, srv := sweepFleet(t, 2, service.Options{Exporter: exp}, exp)

	// Real traffic on both planes so the families carry values: one
	// interactive run through the proxy, one sweep through the manager.
	resp, body := postRun(t, srv.Client(), srv.URL, `{"l":10,"w":6,"seed":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d (%s)", resp.StatusCode, body)
	}
	id := submitSweepJSON(t, srv.URL, `{"l":10,"w":6,"scenarios":["iii"],"seed_count":2}`)
	waitSweepDone(t, srv.URL, id)

	var forwards uint64
	for _, c := range rt.Metrics.Forwards {
		forwards += c.Value()
	}
	if forwards == 0 {
		t.Error("no forwards counted after routed traffic")
	}
	if got := mgr.Metrics.UnitsDone.Value(); got != 2 {
		t.Errorf("UnitsDone = %d, want 2", got)
	}

	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		// The proxied run; sweep units are not HTTP requests.
		`hexd_cluster_requests_total{endpoint="run"} 1`,
		"hexd_sweep_units_done_total 2",
		"# TYPE hexd_otlp_exported_total counter",
	} {
		if !strings.Contains(string(raw), want+"\n") {
			t.Errorf("router metrics page lacks %q", want)
		}
	}
}
