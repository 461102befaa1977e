package service

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeMetric fetches /metrics and returns the named sample's value.
func scrapeMetric(t *testing.T, srv *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s has non-integer value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics output:\n%s", name, body)
	return 0
}

// TestThroughputMetricsAdvance asserts the simulation throughput metrics
// move when work is executed: hexd_sim_events_total accumulates the
// executed event counts across runs and sweeps, and hexd_events_per_sec
// reports a positive rate after each computation.
func TestThroughputMetricsAdvance(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if v := scrapeMetric(t, srv, "hexd_sim_events_total"); v != 0 {
		t.Fatalf("hexd_sim_events_total = %d before any run", v)
	}
	if v := scrapeMetric(t, srv, "hexd_events_per_sec"); v != 0 {
		t.Fatalf("hexd_events_per_sec = %d before any run", v)
	}

	doRun(t, srv, `{"l":5,"w":8,"seed":11}`, http.StatusOK)
	afterRun := scrapeMetric(t, srv, "hexd_sim_events_total")
	if afterRun <= 0 {
		t.Fatalf("hexd_sim_events_total = %d after a run, want > 0", afterRun)
	}
	if eps := scrapeMetric(t, srv, "hexd_events_per_sec"); eps <= 0 {
		t.Fatalf("hexd_events_per_sec = %d after a run, want > 0", eps)
	}

	// A cache hit executes nothing: the accumulator must hold still.
	doRun(t, srv, `{"l":5,"w":8,"seed":11}`, http.StatusOK)
	if v := scrapeMetric(t, srv, "hexd_sim_events_total"); v != afterRun {
		t.Fatalf("hexd_sim_events_total moved on a cache hit: %d -> %d", afterRun, v)
	}

	// A sweep advances the accumulator again and refreshes the gauge from
	// the aggregate of its runs.
	resp, err := srv.Client().Post(srv.URL+"/v1/spec", "application/json",
		strings.NewReader(`{"l":5,"w":8,"runs":3,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec status = %d", resp.StatusCode)
	}
	afterSpec := scrapeMetric(t, srv, "hexd_sim_events_total")
	if afterSpec <= afterRun {
		t.Fatalf("hexd_sim_events_total did not advance on a sweep: %d -> %d", afterRun, afterSpec)
	}
	if eps := scrapeMetric(t, srv, "hexd_events_per_sec"); eps <= 0 {
		t.Fatalf("hexd_events_per_sec = %d after a sweep, want > 0", eps)
	}
}

// TestRecordThroughputGuards pins the degenerate-measurement behavior of
// the service's throughput gauge: zero events or non-positive elapsed
// leave it untouched instead of clobbering it with zero.
func TestRecordThroughputGuards(t *testing.T) {
	m := newMetrics(nil, func() int64 { return 0 })
	m.EventsPerSec.Observe(1_000_000, 500*time.Millisecond)
	if v := m.EventsPerSec.Value(); v != 2_000_000 {
		t.Fatalf("EventsPerSec = %d, want 2000000", v)
	}
	m.EventsPerSec.Observe(0, time.Second)
	m.EventsPerSec.Observe(100, 0)
	m.EventsPerSec.Observe(100, -time.Second)
	if v := m.EventsPerSec.Value(); v != 2_000_000 {
		t.Fatalf("degenerate measurements clobbered the gauge: %d", v)
	}
}
