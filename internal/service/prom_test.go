package service

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/promlint"
)

// TestMetricsPrometheusRoundTrip scrapes /metrics after real traffic and
// re-parses the output through the shared lint pass (declared families,
// HELP text, counter naming, cumulative buckets, +Inf == _count), then
// adds the service-specific checks: the request and sim histograms carry
// observations, and a second scrape emits the identical series in the
// identical order (no label-order drift).
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

	scrape := func() string {
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics Content-Type = %q", ct)
		}
		return readAll(t, resp)
	}

	text := scrape()
	types, samples := promlint.Lint(t, text)
	promlint.RequireFamilies(t, types, map[string]string{
		"hexd_request_seconds":         "histogram",
		"hexd_sim_run_events":          "histogram",
		"hexd_arm_triggered_total":     "counter",
		"hexd_arm_reruns_total":        "counter",
		"hexd_store_fsyncs_total":      "counter",
		"hexd_store_quarantined_total": "counter",
		"hexd_store_commit_entries":    "histogram",
	})

	// At least two histogram families carry real observations.
	counts := make(map[string]float64)
	for _, smp := range samples {
		if fam, _ := promlint.FamilyOf(smp.Name, types); types[fam] == "histogram" &&
			strings.HasSuffix(smp.Name, "_count") {
			counts[fam] += smp.Value
		}
	}
	if len(counts) == 0 {
		t.Fatal("no histogram _count series found")
	}
	observed := make(map[string]bool)
	for fam, c := range counts {
		if c > 0 {
			observed[fam] = true
		}
	}
	if len(observed) < 2 {
		t.Fatalf("only %d histogram families with observations: %v", len(observed), observed)
	}
	for _, want := range []string{"hexd_request_seconds", "hexd_sim_run_events"} {
		if !observed[want] {
			t.Errorf("histogram %s has no observations after traffic", want)
		}
	}

	// A second scrape serves the identical series in the identical order.
	series := func(smps []promlint.Sample) []string {
		out := make([]string, len(smps))
		for i, s := range smps {
			out[i] = s.Name + "{" + s.Labels + "}"
		}
		return out
	}
	_, _, again := promlint.Parse(t, scrape())
	if !reflect.DeepEqual(series(samples), series(again)) {
		t.Fatal("series order drifted between scrapes")
	}
}
