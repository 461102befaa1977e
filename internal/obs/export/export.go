// Package export is an in-process, dependency-free OTLP/JSON-over-HTTP
// span exporter: it converts completed obs.Trace records — request span,
// per-stage child spans, attrs, notes, and flight-recorder dumps — into
// OTLP ResourceSpans and POSTs them to a collector's /v1/traces endpoint
// (Jaeger, the OpenTelemetry Collector, anything speaking OTLP/HTTP).
//
// The design constraints mirror the rest of the observability layer:
//
//   - The serving path never blocks. Export enqueues a snapshot onto a
//     bounded queue and returns; when the queue is full (collector slow
//     or down) the spans are counted as dropped, not waited for.
//   - A nil *Exporter is a valid receiver for every method, so call
//     sites need no branching when -otlp-endpoint is unset.
//   - Batching amortizes the HTTP round trip; a failed POST retries with
//     exponential backoff a bounded number of times, then the batch is
//     dropped and counted. Nothing is ever retried across process exit.
//   - Close drains: hexd's SIGTERM path flushes queued spans before the
//     listener goes away.
//
// W3C parentage survives the conversion: each obs.Trace carries its own
// span-id and the span-id of the hop that caused it (router forward,
// sweep-job root), so a router-hop request renders as one stitched tree
// across the fleet in the collector's UI.
package export

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// serviceName is the OTLP resource's service.name attribute.
const serviceName = "hexd"

// Options configures an Exporter. The zero value of every field but
// Endpoint is usable; Endpoint empty means "exporting disabled" and New
// returns nil.
type Options struct {
	// Endpoint is the collector base URL (e.g. http://localhost:4318);
	// spans POST to Endpoint + "/v1/traces".
	Endpoint string

	// QueueSize bounds the trace-snapshot queue between the serving path
	// and the sender goroutine. Default 1024.
	QueueSize int

	// BatchSize is the number of trace snapshots per POST. Default 64.
	BatchSize int

	// FlushInterval bounds how long a non-full batch waits. Default 2s.
	FlushInterval time.Duration

	// Retries is how many times a failed POST is retried (beyond the
	// first attempt) before the batch is dropped. Default 2.
	Retries int

	// Backoff is the first retry's delay; it doubles per attempt.
	// Default 250ms.
	Backoff time.Duration

	// Timeout bounds each POST. Default 5s.
	Timeout time.Duration

	// Client overrides the HTTP client (tests). Default: a fresh client
	// with Timeout.
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 250 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: o.Timeout}
	}
	return o
}

// Exporter ships trace snapshots to an OTLP collector from a single
// background goroutine. All methods are safe for concurrent use and on a
// nil receiver.
type Exporter struct {
	opts Options
	url  string

	queue   chan obs.TraceSnapshot
	flushCh chan chan struct{}
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once

	exported atomic.Uint64 // spans successfully POSTed
	dropped  atomic.Uint64 // spans lost to a full queue or exhausted retries
	retries  atomic.Uint64 // POST retry attempts
}

// New starts an exporter, or returns nil (a valid, inert receiver) when
// o.Endpoint is empty.
func New(o Options) *Exporter {
	if o.Endpoint == "" {
		return nil
	}
	o = o.withDefaults()
	e := &Exporter{
		opts:    o,
		url:     o.Endpoint + "/v1/traces",
		queue:   make(chan obs.TraceSnapshot, o.QueueSize),
		flushCh: make(chan chan struct{}),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go e.loop()
	return e
}

// Enabled reports whether spans are actually being exported.
func (e *Exporter) Enabled() bool { return e != nil }

// Export snapshots tr and enqueues it without blocking. A full queue
// (slow or absent collector) counts the trace's spans as dropped; the
// serving path is never back-pressured by the collector.
func (e *Exporter) Export(tr *obs.Trace) {
	if e == nil || tr == nil {
		return
	}
	snap := tr.Snapshot()
	select {
	case e.queue <- snap:
	default:
		e.dropped.Add(uint64(1 + len(snap.Spans)))
	}
}

// Flush sends everything queued at the time of the call, blocking until
// the queue has drained and the final POST completed (or ctx expired).
func (e *Exporter) Flush(ctx context.Context) error {
	if e == nil {
		return nil
	}
	ack := make(chan struct{})
	select {
	case e.flushCh <- ack:
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-ack:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the queue and stops the sender. Traces exported after
// Close are dropped once the queue fills. Safe to call more than once.
func (e *Exporter) Close(ctx context.Context) error {
	if e == nil {
		return nil
	}
	e.once.Do(func() { close(e.stop) })
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Exported returns the number of spans successfully POSTed.
func (e *Exporter) Exported() uint64 {
	if e == nil {
		return 0
	}
	return e.exported.Load()
}

// Dropped returns the number of spans lost (full queue or exhausted
// retries).
func (e *Exporter) Dropped() uint64 {
	if e == nil {
		return 0
	}
	return e.dropped.Load()
}

// Retries returns the number of POST retry attempts.
func (e *Exporter) Retries() uint64 {
	if e == nil {
		return 0
	}
	return e.retries.Load()
}

// RegisterMetrics declares the exporter's families in r, read at scrape
// time. Safe on a nil receiver (declares nothing), so wiring can be
// unconditional.
func (e *Exporter) RegisterMetrics(r *metrics.Registry) {
	if e == nil {
		return
	}
	r.CounterFunc("hexd_otlp_exported_total", "Spans successfully exported to the OTLP collector.", e.exported.Load)
	r.CounterFunc("hexd_otlp_dropped_total", "Spans dropped because the export queue was full or retries were exhausted.", e.dropped.Load)
	r.CounterFunc("hexd_otlp_retries_total", "OTLP POST retry attempts.", e.retries.Load)
	r.GaugeFunc("hexd_otlp_queue_depth", "Trace snapshots waiting in the export queue.", func() int64 { return int64(len(e.queue)) })
}

// loop is the single sender goroutine: batch, tick, flush, drain.
func (e *Exporter) loop() {
	defer close(e.done)
	ticker := time.NewTicker(e.opts.FlushInterval)
	defer ticker.Stop()
	batch := make([]obs.TraceSnapshot, 0, e.opts.BatchSize)
	for {
		select {
		case snap := <-e.queue:
			batch = append(batch, snap)
			if len(batch) >= e.opts.BatchSize {
				e.send(batch)
				batch = batch[:0]
			}
		case <-ticker.C:
			if len(batch) > 0 {
				e.send(batch)
				batch = batch[:0]
			}
		case ack := <-e.flushCh:
			batch = e.drain(batch)
			close(ack)
		case <-e.stop:
			e.drain(batch)
			return
		}
	}
}

// drain empties the queue, sending full batches as it goes, then sends
// the remainder. Returns the (empty) reusable batch slice.
func (e *Exporter) drain(batch []obs.TraceSnapshot) []obs.TraceSnapshot {
	for {
		select {
		case snap := <-e.queue:
			batch = append(batch, snap)
			if len(batch) >= e.opts.BatchSize {
				e.send(batch)
				batch = batch[:0]
			}
		default:
			if len(batch) > 0 {
				e.send(batch)
			}
			return batch[:0]
		}
	}
}

// send POSTs one batch with bounded retry; a batch that exhausts its
// retries is dropped and counted, never requeued.
func (e *Exporter) send(batch []obs.TraceSnapshot) {
	body, spans := Marshal(serviceName, batch)
	backoff := e.opts.Backoff
	for attempt := 0; ; attempt++ {
		err := e.post(body)
		if err == nil {
			e.exported.Add(uint64(spans))
			return
		}
		if attempt >= e.opts.Retries {
			e.dropped.Add(uint64(spans))
			return
		}
		e.retries.Add(1)
		select {
		case <-time.After(backoff):
		case <-e.stop:
			// Shutting down: one final immediate attempt below, no more
			// waiting after that.
		}
		backoff *= 2
	}
}

// post performs one POST of an OTLP/JSON payload.
func (e *Exporter) post(body []byte) error {
	req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("export: collector returned %s", resp.Status)
	}
	return nil
}

// --- OTLP/JSON payload -------------------------------------------------
//
// The wire shapes below follow the OTLP 1.x JSON mapping of
// opentelemetry-proto's trace service: trace/span ids are lower-case hex
// strings, 64-bit integers are decimal strings, enums are bare numbers.
// They are exported so tests (and the fake collector behind
// `make otlp-smoke`) can decode payloads with encoding/json alone.

// Payload is the body POSTed to /v1/traces.
type Payload struct {
	ResourceSpans []ResourceSpans `json:"resourceSpans"`
}

// ResourceSpans groups spans under one resource (one hexd process).
type ResourceSpans struct {
	Resource   Resource     `json:"resource"`
	ScopeSpans []ScopeSpans `json:"scopeSpans"`
}

// Resource identifies the emitting process.
type Resource struct {
	Attributes []KeyValue `json:"attributes,omitempty"`
}

// ScopeSpans groups spans under one instrumentation scope.
type ScopeSpans struct {
	Scope Scope  `json:"scope"`
	Spans []Span `json:"spans"`
}

// Scope names the instrumentation that produced the spans.
type Scope struct {
	Name string `json:"name"`
}

// Span is one OTLP span.
type Span struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []KeyValue `json:"attributes,omitempty"`
	Status            *Status    `json:"status,omitempty"`
}

// OTLP SpanKind and StatusCode values used here.
const (
	KindInternal = 1
	KindServer   = 2

	StatusError = 2
)

// Status is a span's terminal status.
type Status struct {
	Message string `json:"message,omitempty"`
	Code    int    `json:"code,omitempty"`
}

// KeyValue is one attribute.
type KeyValue struct {
	Key   string   `json:"key"`
	Value AnyValue `json:"value"`
}

// AnyValue is the OTLP tagged-union attribute value.
type AnyValue struct {
	StringValue *string     `json:"stringValue,omitempty"`
	IntValue    *string     `json:"intValue,omitempty"`
	BoolValue   *bool       `json:"boolValue,omitempty"`
	ArrayValue  *ArrayValue `json:"arrayValue,omitempty"`
}

// ArrayValue holds an array attribute's elements.
type ArrayValue struct {
	Values []AnyValue `json:"values"`
}

func strValue(s string) AnyValue         { return AnyValue{StringValue: &s} }
func intValue(i int64) AnyValue          { v := strconv.FormatInt(i, 10); return AnyValue{IntValue: &v} }
func boolValue(b bool) AnyValue          { return AnyValue{BoolValue: &b} }
func nanos(t time.Time) string           { return strconv.FormatInt(t.UnixNano(), 10) }
func attr(k string, v AnyValue) KeyValue { return KeyValue{Key: k, Value: v} }

// Marshal converts a batch of trace snapshots into one OTLP/JSON payload,
// returning the body and the number of OTLP spans it carries. Exported
// for tests; Exporter.send is its only production caller.
func Marshal(serviceName string, batch []obs.TraceSnapshot) ([]byte, int) {
	spans := make([]Span, 0, len(batch)*4)
	for i := range batch {
		spans = appendSpans(spans, &batch[i])
	}
	p := Payload{ResourceSpans: []ResourceSpans{{
		Resource: Resource{Attributes: []KeyValue{attr("service.name", strValue(serviceName))}},
		ScopeSpans: []ScopeSpans{{
			Scope: Scope{Name: "repro/internal/obs"},
			Spans: spans,
		}},
	}}}
	body, err := json.Marshal(p)
	if err != nil {
		// Every field is a plain string/number/bool; Marshal cannot fail.
		return []byte("{}"), 0
	}
	return body, len(spans)
}

// appendSpans renders one trace snapshot: a SERVER root span carrying the
// request's attrs, notes, truncation count, and flight dump, plus one
// INTERNAL child span per recorded stage.
func appendSpans(out []Span, snap *obs.TraceSnapshot) []Span {
	traceID := snap.TraceID
	if len(traceID) != 32 {
		// A root request that never saw a traceparent header still gets a
		// well-formed (if unstitched) trace in the collector.
		traceID = obs.NewTraceID()
	}
	spanID := snap.SpanID
	if len(spanID) != 16 {
		spanID = obs.NewSpanID()
	}
	start := snap.Start
	end := start.Add(time.Duration(snap.DurationMs * float64(time.Millisecond)))

	attrs := make([]KeyValue, 0, 6+len(snap.Attrs))
	attrs = append(attrs, attr("hexd.request_id", strValue(snap.ID)))
	attrs = append(attrs, attr("hexd.status", intValue(int64(snap.Status))))
	for _, k := range sortedKeys(snap.Attrs) {
		attrs = append(attrs, attr("hexd."+k, strValue(snap.Attrs[k])))
	}
	if snap.SpansDropped > 0 {
		attrs = append(attrs, attr("hexd.spans_dropped", intValue(int64(snap.SpansDropped))))
	}
	if len(snap.Notes) > 0 {
		vals := make([]AnyValue, len(snap.Notes))
		for i, n := range snap.Notes {
			vals[i] = strValue(n)
		}
		attrs = append(attrs, attr("hexd.notes", AnyValue{ArrayValue: &ArrayValue{Values: vals}}))
	}
	if d := snap.Flight; d != nil {
		attrs = append(attrs, attr("hexd.flight.captured", intValue(int64(d.Captured))))
		attrs = append(attrs, attr("hexd.flight.dropped", intValue(int64(d.Dropped))))
		attrs = append(attrs, attr("hexd.flight.complete", boolValue(d.Complete)))
		attrs = append(attrs, attr("hexd.flight.audit_ok", boolValue(d.AuditOK)))
		if d.AuditError != "" {
			attrs = append(attrs, attr("hexd.flight.audit_error", strValue(d.AuditError)))
		}
		if dump, err := json.Marshal(d); err == nil {
			attrs = append(attrs, attr("hexd.flight.dump", strValue(string(dump))))
		}
	}

	root := Span{
		TraceID:           traceID,
		SpanID:            spanID,
		ParentSpanID:      snap.ParentSpanID,
		Name:              snap.Endpoint,
		Kind:              KindServer,
		StartTimeUnixNano: nanos(start),
		EndTimeUnixNano:   nanos(end),
		Attributes:        attrs,
	}
	if snap.Error != "" {
		root.Status = &Status{Code: StatusError, Message: snap.Error}
	}
	out = append(out, root)

	for _, sp := range snap.Spans {
		b := start.Add(time.Duration(sp.StartUs * float64(time.Microsecond)))
		out = append(out, Span{
			TraceID:           traceID,
			SpanID:            obs.NewSpanID(),
			ParentSpanID:      spanID,
			Name:              sp.Name,
			Kind:              KindInternal,
			StartTimeUnixNano: nanos(b),
			EndTimeUnixNano:   nanos(b.Add(time.Duration(sp.DurUs * float64(time.Microsecond)))),
		})
	}
	return out
}

// sortedKeys gives attribute emission a stable order for tests and
// humans diffing payloads.
func sortedKeys(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
