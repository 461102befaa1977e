package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/service"
)

// otlpCollector is an in-process fake OTLP collector: it decodes every
// /v1/traces POST into export's wire types and keeps the spans.
type otlpCollector struct {
	mu    sync.Mutex
	spans []export.Span
}

func (c *otlpCollector) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p export.Payload
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.mu.Lock()
		for _, rs := range p.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				c.spans = append(c.spans, ss.Spans...)
			}
		}
		c.mu.Unlock()
	})
}

func (c *otlpCollector) all() []export.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]export.Span(nil), c.spans...)
}

func (c *otlpCollector) named(name string) []export.Span {
	var out []export.Span
	for _, s := range c.all() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func spanAttr(s export.Span, key string) (export.AnyValue, bool) {
	for _, kv := range s.Attributes {
		if kv.Key == key {
			return kv.Value, true
		}
	}
	return export.AnyValue{}, false
}

// sweepFleet boots backends and a router that all share one OTLP
// exporter (as an in-process stand-in for per-process exporters pointed
// at the same collector), plus a jobs manager fronting the router, wired
// the way cmd/hexd wires -router mode.
func sweepFleet(t *testing.T, backends int, svcOpts service.Options, exp *export.Exporter) (*Router, *jobs.Manager, *httptest.Server) {
	t.Helper()
	peers := make([]string, backends)
	for i := range peers {
		n := startNode(t, "", "", svcOpts)
		peers[i] = n.url()
	}
	rt, err := New(Options{
		Peers:          peers,
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		FailThreshold:  1,
		Backoff:        10 * time.Millisecond,
		Logger:         quietLogger(),
		Exporter:       exp,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	mgr := jobs.NewManager(jobs.Options{
		Runner:   rt,
		Service:  service.Options{},
		Logger:   quietLogger(),
		Trace:    rt.Ring(),
		Exporter: exp,
		Metrics:  rt.Metrics.Registry,
	})
	t.Cleanup(mgr.Close)
	exp.RegisterMetrics(rt.Metrics.Registry)
	mux := http.NewServeMux()
	mux.Handle("/", rt.Handler())
	mgr.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return rt, mgr, srv
}

// waitSweepDone polls the job status endpoint until every unit reached a
// terminal state.
func waitSweepDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Units, Done, Failed, Cancelled int
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Units > 0 && st.Done+st.Failed+st.Cancelled == st.Units {
			if st.Failed+st.Cancelled > 0 {
				t.Fatalf("sweep not clean: %+v", st)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
}

// TestFleetStitchedTraceAndArmRerun is the acceptance test for the OTLP
// tentpole: a sweep submitted to a 2-backend fleet's router must export
// one trace tree — sweep-job root → per-batch spans (router side; one
// unit each at the default Batch of 1) → backend request spans (owner
// side) with correct traceparent parentage
// — and, with a skew policy whose margin forces every run out of the
// envelope, each backend run must be auto-re-run with the flight
// recorder armed and the dump attached to its exported span.
func TestFleetStitchedTraceAndArmRerun(t *testing.T) {
	col := &otlpCollector{}
	colSrv := httptest.NewServer(col.handler())
	defer colSrv.Close()
	exp := export.New(export.Options{
		Endpoint:      colSrv.URL,
		BatchSize:     4,
		FlushInterval: 20 * time.Millisecond,
	})
	defer exp.Close(context.Background())

	// SkewMarginPct -100 inverts the Theorem-1 envelope: every measured
	// run violates it, so every unit must trigger an armed re-run.
	svcOpts := service.Options{
		Exporter: exp,
		Arm:      obs.NewArmer(obs.ArmPolicy{OnSkew: true, SkewMarginPct: -100}),
	}
	_, _, srv := sweepFleet(t, 2, svcOpts, exp)

	const units = 3
	sub := submitSweepJSON(t, srv.URL, fmt.Sprintf(
		`{"l":10,"w":6,"scenarios":["iii"],"seed_count":%d}`, units))
	waitSweepDone(t, srv.URL, sub)

	// The root exports on job completion, batch spans per batch, backend
	// spans per forwarded run; flush and wait for all of them to land.
	deadline := time.Now().Add(10 * time.Second)
	var roots, unitSpans, backendSpans []export.Span
	for time.Now().Before(deadline) {
		if err := exp.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		roots = col.named("sweep-job")
		unitSpans = col.named("sweep-batch")
		backendSpans = col.named("run")
		if len(roots) >= 1 && len(unitSpans) >= units && len(backendSpans) >= units {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(roots) != 1 {
		t.Fatalf("exported %d sweep-job roots, want 1", len(roots))
	}
	root := roots[0]
	if root.ParentSpanID != "" {
		t.Fatalf("job root has a parent span %q", root.ParentSpanID)
	}
	if root.Kind != export.KindServer {
		t.Fatalf("root kind = %d", root.Kind)
	}
	if v, ok := spanAttr(root, "hexd.units"); !ok || v.StringValue == nil || *v.StringValue != fmt.Sprint(units) {
		t.Fatalf("root hexd.units attr = %+v, want %d", v, units)
	}

	// Every batch span is a child of the root, in the root's trace.
	if len(unitSpans) != units {
		t.Fatalf("exported %d sweep-batch spans, want %d", len(unitSpans), units)
	}
	unitByID := make(map[string]export.Span)
	for _, u := range unitSpans {
		if u.TraceID != root.TraceID {
			t.Fatalf("unit span trace %q != root trace %q", u.TraceID, root.TraceID)
		}
		if u.ParentSpanID != root.SpanID {
			t.Fatalf("unit span parent %q != root span %q", u.ParentSpanID, root.SpanID)
		}
		unitByID[u.SpanID] = u
	}

	// Every backend request span is stitched into the same trace, under
	// the unit span whose forward caused it (the router put the unit's
	// span-id into the traceparent header).
	stitched := 0
	for _, b := range backendSpans {
		if b.TraceID != root.TraceID {
			continue // unrelated traffic (health checks export nothing, but be safe)
		}
		if _, ok := unitByID[b.ParentSpanID]; !ok {
			t.Fatalf("backend span parent %q is not a unit span", b.ParentSpanID)
		}
		stitched++

		// The arm policy fired on the owner: the run was re-run with the
		// recorder armed and the forensic dump rode out on the span.
		if v, ok := spanAttr(b, "hexd.arm"); !ok || v.StringValue == nil || !strings.Contains(*v.StringValue, "skew") {
			t.Errorf("backend span missing hexd.arm=skew attr: %+v", v)
		}
		if v, ok := spanAttr(b, "hexd.flight.captured"); !ok || v.IntValue == nil || *v.IntValue == "0" {
			t.Errorf("backend span flight dump captured no events: %+v", v)
		}
		if _, ok := spanAttr(b, "hexd.flight.dump"); !ok {
			t.Error("backend span missing hexd.flight.dump attr")
		}
	}
	if stitched != units {
		t.Fatalf("stitched %d backend spans into the job trace, want %d", stitched, units)
	}

	// The unit count with a child backend span must cover all units: no
	// orphaned hop anywhere in the tree.
	covered := make(map[string]bool)
	for _, b := range backendSpans {
		covered[b.ParentSpanID] = true
	}
	for id, u := range unitByID {
		if !covered[id] {
			t.Errorf("unit span %s (%s) has no backend child", id, u.Name)
		}
	}
}

// submitSweepJSON posts a sweep spec and returns the job id.
func submitSweepJSON(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", resp.StatusCode)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

// TestProxyHopStitching covers the interactive path: a /v1/run sent to
// the router with a caller traceparent must produce a router span
// parented to the caller and a backend span parented to the router span,
// all in the caller's trace.
func TestProxyHopStitching(t *testing.T) {
	col := &otlpCollector{}
	colSrv := httptest.NewServer(col.handler())
	defer colSrv.Close()
	exp := export.New(export.Options{
		Endpoint:      colSrv.URL,
		BatchSize:     1,
		FlushInterval: 20 * time.Millisecond,
	})
	defer exp.Close(context.Background())

	_, _, srv := sweepFleet(t, 2, service.Options{Exporter: exp}, exp)

	callerTrace := obs.NewTraceID()
	callerSpan := obs.NewSpanID()
	req, err := http.NewRequest("POST", srv.URL+"/v1/run",
		strings.NewReader(`{"l":10,"w":6,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(callerTrace, callerSpan))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	var routerSpan, backendSpan *export.Span
	for time.Now().Before(deadline) && (routerSpan == nil || backendSpan == nil) {
		if err := exp.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		routerSpan, backendSpan = nil, nil
		spans := col.named("run")
		for i := range spans {
			if spans[i].TraceID != callerTrace {
				continue
			}
			if spans[i].ParentSpanID == callerSpan {
				routerSpan = &spans[i]
			} else {
				backendSpan = &spans[i]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if routerSpan == nil {
		t.Fatal("no router span parented to the caller was exported")
	}
	if backendSpan == nil {
		t.Fatal("no backend span in the caller's trace was exported")
	}
	if backendSpan.ParentSpanID != routerSpan.SpanID {
		t.Fatalf("backend span parent %q != router span %q",
			backendSpan.ParentSpanID, routerSpan.SpanID)
	}
}
