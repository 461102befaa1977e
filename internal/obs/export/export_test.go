package export

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// collector is an in-process fake OTLP collector: it decodes every
// /v1/traces POST and keeps the spans for assertions.
type collector struct {
	mu       sync.Mutex
	spans    []Span
	requests int
	fail     atomic.Bool   // respond 503 when set
	block    chan struct{} // when non-nil, handlers wait on it
}

func (c *collector) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c.block != nil {
			<-c.block
		}
		if c.fail.Load() {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path != "/v1/traces" {
			http.Error(w, "wrong path", http.StatusNotFound)
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			http.Error(w, "wrong content type "+ct, http.StatusBadRequest)
			return
		}
		var p Payload
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.mu.Lock()
		c.requests++
		for _, rs := range p.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				c.spans = append(c.spans, ss.Spans...)
			}
		}
		c.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
}

func (c *collector) spanCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

func (c *collector) find(name string) (Span, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.spans {
		if s.Name == name {
			return s, true
		}
	}
	return Span{}, false
}

func attrValue(s Span, key string) (AnyValue, bool) {
	for _, kv := range s.Attributes {
		if kv.Key == key {
			return kv.Value, true
		}
	}
	return AnyValue{}, false
}

func finishedTrace(endpoint string) *obs.Trace {
	tr := obs.NewTrace(obs.NewRequestID(), endpoint)
	tr.SetTraceID(obs.NewTraceID())
	done := tr.StartSpan("simulate")
	done()
	tr.Finish(200, nil)
	return tr
}

func TestNilExporterIsInert(t *testing.T) {
	var e *Exporter
	if e.Enabled() {
		t.Fatal("nil exporter reports enabled")
	}
	e.Export(finishedTrace("/v1/run")) // must not panic
	if err := e.Flush(context.Background()); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if e.Exported()+e.Dropped()+e.Retries() != 0 {
		t.Fatal("nil exporter has nonzero counters")
	}
	var reg metrics.Registry
	e.RegisterMetrics(&reg)
	var buf bytes.Buffer
	reg.WriteText(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil RegisterMetrics declared %q", buf.String())
	}
	if New(Options{}) != nil {
		t.Fatal("New with empty endpoint should return nil")
	}
}

func TestExportRoundTrip(t *testing.T) {
	c := &collector{}
	srv := httptest.NewServer(c.handler())
	defer srv.Close()

	e := New(Options{Endpoint: srv.URL, BatchSize: 2, FlushInterval: time.Hour})
	defer e.Close(context.Background())

	tr := obs.NewTrace("req-1", "/v1/run")
	tr.SetTraceID(obs.NewTraceID())
	tr.SetParentSpanID("aaaabbbbccccdddd")
	tr.SetAttr("scenario", "iii")
	tr.Note("cache:miss")
	done := tr.StartSpan("simulate")
	done()
	tr.Finish(500, errors.New("boom"))

	e.Export(tr)
	if err := e.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}

	root, ok := c.find("/v1/run")
	if !ok {
		t.Fatalf("no root span exported; got %d spans", c.spanCount())
	}
	if root.TraceID != tr.TraceID() {
		t.Fatalf("trace id %q, want %q", root.TraceID, tr.TraceID())
	}
	if root.SpanID != tr.SpanID() {
		t.Fatalf("span id %q, want trace's own %q", root.SpanID, tr.SpanID())
	}
	if root.ParentSpanID != "aaaabbbbccccdddd" {
		t.Fatalf("parent span id %q, want aaaabbbbccccdddd", root.ParentSpanID)
	}
	if root.Kind != KindServer {
		t.Fatalf("root kind %d, want SERVER(%d)", root.Kind, KindServer)
	}
	if root.Status == nil || root.Status.Code != StatusError || root.Status.Message != "boom" {
		t.Fatalf("root status %+v, want error/boom", root.Status)
	}
	if v, ok := attrValue(root, "hexd.scenario"); !ok || *v.StringValue != "iii" {
		t.Fatalf("hexd.scenario attr missing or wrong: %+v", v)
	}
	if v, ok := attrValue(root, "hexd.notes"); !ok || len(v.ArrayValue.Values) != 1 {
		t.Fatalf("hexd.notes attr missing or wrong: %+v", v)
	}
	child, ok := c.find("simulate")
	if !ok {
		t.Fatal("stage child span not exported")
	}
	if child.TraceID != root.TraceID || child.ParentSpanID != root.SpanID {
		t.Fatalf("child not parented to root: trace %q parent %q", child.TraceID, child.ParentSpanID)
	}
	if child.Kind != KindInternal {
		t.Fatalf("child kind %d, want INTERNAL(%d)", child.Kind, KindInternal)
	}
	if got := e.Exported(); got != 2 {
		t.Fatalf("Exported() = %d, want 2", got)
	}
}

func TestCollectorDownAtBoot(t *testing.T) {
	// Grab a port that refuses connections by closing a listener.
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()

	e := New(Options{Endpoint: url, Retries: 1, Backoff: time.Millisecond, FlushInterval: time.Hour})
	defer e.Close(context.Background())

	e.Export(finishedTrace("/v1/run"))
	if err := e.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if e.Exported() != 0 {
		t.Fatalf("Exported() = %d with no collector", e.Exported())
	}
	if e.Dropped() == 0 {
		t.Fatal("batch should be dropped after exhausted retries")
	}
	if e.Retries() == 0 {
		t.Fatal("retry attempts should be counted")
	}
}

func TestCollectorDiesMidStream(t *testing.T) {
	c := &collector{}
	srv := httptest.NewServer(c.handler())
	defer srv.Close()

	e := New(Options{Endpoint: srv.URL, Retries: 1, Backoff: time.Millisecond, FlushInterval: time.Hour})
	defer e.Close(context.Background())

	e.Export(finishedTrace("/v1/run"))
	if err := e.Flush(context.Background()); err != nil {
		t.Fatalf("flush 1: %v", err)
	}
	if e.Exported() == 0 {
		t.Fatal("first batch should export while collector is up")
	}

	c.fail.Store(true) // collector starts erroring mid-stream
	before := e.Dropped()
	e.Export(finishedTrace("/v1/spec"))
	if err := e.Flush(context.Background()); err != nil {
		t.Fatalf("flush 2: %v", err)
	}
	if e.Dropped() <= before {
		t.Fatal("batch should be dropped once the collector starts failing")
	}

	c.fail.Store(false) // collector recovers; exporter keeps going
	after := e.Exported()
	e.Export(finishedTrace("/v1/run"))
	if err := e.Flush(context.Background()); err != nil {
		t.Fatalf("flush 3: %v", err)
	}
	if e.Exported() <= after {
		t.Fatal("exports should resume after the collector recovers")
	}
}

func TestSlowCollectorNeverBlocksExport(t *testing.T) {
	c := &collector{block: make(chan struct{})}
	srv := httptest.NewServer(c.handler())
	defer srv.Close()

	e := New(Options{Endpoint: srv.URL, QueueSize: 2, BatchSize: 1, FlushInterval: time.Hour})

	// The sender goroutine is stuck in a POST the collector refuses to
	// answer; the bounded queue fills and Export must keep returning
	// immediately, counting drops instead of stalling the sim path.
	start := time.Now()
	for i := 0; i < 100; i++ {
		e.Export(finishedTrace("/v1/run"))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("100 Exports took %v against a hung collector", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Dropped() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Dropped() == 0 {
		t.Fatal("full queue should count drops while the collector hangs")
	}

	close(c.block) // collector wakes up; Close drains what survived
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if e.Exported() == 0 {
		t.Fatal("queued spans should flush once the collector unblocks")
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	c := &collector{}
	srv := httptest.NewServer(c.handler())
	defer srv.Close()

	// FlushInterval and BatchSize both too large to trigger on their own:
	// only the Close-path drain can deliver these spans.
	e := New(Options{Endpoint: srv.URL, BatchSize: 64, FlushInterval: time.Hour})
	const n = 10
	for i := 0; i < n; i++ {
		e.Export(finishedTrace(fmt.Sprintf("/v1/run#%d", i)))
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := e.Exported(); got != 2*n { // root + one stage span each
		t.Fatalf("Exported() = %d after Close, want %d", got, 2*n)
	}
	if c.spanCount() != 2*n {
		t.Fatalf("collector saw %d spans, want %d", c.spanCount(), 2*n)
	}
	// Close is idempotent.
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestMarshalSpanTruncationAttr(t *testing.T) {
	snap := obs.TraceSnapshot{
		ID:           "req-x",
		TraceID:      obs.NewTraceID(),
		SpanID:       obs.NewSpanID(),
		Endpoint:     "/v1/run",
		Start:        time.Unix(1700000000, 0),
		Status:       200,
		SpansDropped: 7,
	}
	body, n := Marshal("hexd", []obs.TraceSnapshot{snap})
	if n != 1 {
		t.Fatalf("span count %d, want 1", n)
	}
	var p Payload
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("payload does not round-trip: %v", err)
	}
	root := p.ResourceSpans[0].ScopeSpans[0].Spans[0]
	v, ok := attrValue(root, "hexd.spans_dropped")
	if !ok || v.IntValue == nil || *v.IntValue != "7" {
		t.Fatalf("hexd.spans_dropped attr missing or wrong: %+v", v)
	}
	if kv := p.ResourceSpans[0].Resource.Attributes[0]; kv.Key != "service.name" || *kv.Value.StringValue != "hexd" {
		t.Fatalf("service.name resource attr wrong: %+v", kv)
	}
}

func TestMarshalMintsIDsForUnstitchedTraces(t *testing.T) {
	snap := obs.TraceSnapshot{ID: "req-y", Endpoint: "/healthz", Start: time.Unix(1700000000, 0)}
	body, _ := Marshal("hexd", []obs.TraceSnapshot{snap})
	var p Payload
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	root := p.ResourceSpans[0].ScopeSpans[0].Spans[0]
	if len(root.TraceID) != 32 || len(root.SpanID) != 16 {
		t.Fatalf("minted ids malformed: trace %q span %q", root.TraceID, root.SpanID)
	}
}

func TestWriteMetricsFamilies(t *testing.T) {
	c := &collector{}
	srv := httptest.NewServer(c.handler())
	defer srv.Close()
	e := New(Options{Endpoint: srv.URL})
	defer e.Close(context.Background())

	var reg metrics.Registry
	e.RegisterMetrics(&reg)
	var buf bytes.Buffer
	reg.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"hexd_otlp_exported_total",
		"hexd_otlp_dropped_total",
		"hexd_otlp_retries_total",
		"hexd_otlp_queue_depth",
	} {
		if !strings.Contains(out, "# TYPE "+want) {
			t.Errorf("RegisterMetrics missing family %s:\n%s", want, out)
		}
	}
}
