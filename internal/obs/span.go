// Package obs is the unified observability layer of the repository: a
// request-scoped trace (an ID plus per-stage spans) that travels through
// context.Context from the HTTP handler down to the simulation sweep, a
// bounded ring of completed traces behind hexd's GET /v1/debug/requests,
// an allocation-free flight recorder implementing core.Tracer that
// captures the tail of a simulation's event stream for post-mortem audit,
// a time-decaying EWMA rate used by the hexd_events_per_sec metric, and
// the HTTP request envelope every hexd endpoint shares (http.go).
//
// Everything here is designed to cost nothing when unused: a nil *Trace is
// a valid receiver for every method, FromContext on a bare context returns
// nil, and the simulation hot loop is only touched when a flight recorder
// is explicitly armed (core's per-event tracer check predates this
// package).
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// maxSpans bounds the per-trace span list so a 2000-run sweep cannot grow
// a trace without bound; further spans are counted, not stored.
const maxSpans = 256

// maxRequestIDLen bounds accepted client-supplied request IDs.
const maxRequestIDLen = 64

// RequestID returns a usable request ID: the client-supplied value when it
// is non-empty, printable, and of sane length (so it can be echoed into
// headers, JSON bodies, and log lines verbatim), or a fresh random ID.
func RequestID(supplied string) string {
	if supplied != "" && len(supplied) <= maxRequestIDLen && Printable(supplied) {
		return supplied
	}
	return NewRequestID()
}

// NewRequestID returns a fresh 16-hex-character random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID is
		// still functional (correlation only degrades).
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Printable reports whether s is safe to reflect into headers and logs.
func Printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] >= 0x7f {
			return false
		}
	}
	return true
}

// Trace collects the per-stage timings and outcome of one request. All
// methods are safe for concurrent use and valid on a nil receiver (no-ops),
// so instrumented code never needs to branch on whether tracing is on.
type Trace struct {
	mu           sync.Mutex
	id           string
	traceID      string
	spanID       string
	parentSpanID string
	endpoint     string
	start        time.Time
	spans        []Span
	spansDropped int
	notes        []string
	attrs        map[string]string
	status       int
	errMsg       string
	flight       *FlightDump
	done         bool
	duration     time.Duration
}

// Span is one named stage of a request, stored as offsets from the trace
// start so snapshots serialize compactly.
type Span struct {
	Name  string
	Start time.Duration
	End   time.Duration
}

// NewTrace starts a trace for one request. Every trace is born with its
// own W3C span-id so that downstream hops (router→backend, job→unit) can
// name it as their parent.
func NewTrace(id, endpoint string) *Trace {
	return &Trace{id: id, endpoint: endpoint, spanID: NewSpanID(), start: time.Now()}
}

// ID returns the request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetTraceID attaches a W3C trace-id (32 hex chars) correlating this
// request across fleet nodes; it appears as trace_id in snapshots.
func (t *Trace) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traceID = id
}

// TraceID returns the attached W3C trace-id ("" when none).
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// SpanID returns this trace's own W3C span-id (16 hex chars, minted at
// NewTrace; "" on a nil trace). Senders put it in the traceparent header
// so the receiving hop's span parents under this one.
func (t *Trace) SpanID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spanID
}

// SetParentSpanID records the span-id of the hop that caused this request
// (from an incoming traceparent header or an enclosing job trace), linking
// this trace into the fleet-wide tree the OTLP exporter emits.
func (t *Trace) SetParentSpanID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parentSpanID = id
}

// ParentSpanID returns the recorded parent span-id ("" when this trace is
// a root).
func (t *Trace) ParentSpanID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.parentSpanID
}

// StartSpan begins a named stage and returns the function that ends it.
// Typical use: defer tr.StartSpan("sim")().
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { t.AddSpan(name, begin, time.Now()) }
}

// AddSpan records a stage with explicit wall-clock endpoints; use it when
// the stage's start and end happen on different goroutines (queue wait).
func (t *Trace) AddSpan(name string, begin, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.spansDropped++
		return
	}
	t.spans = append(t.spans, Span{Name: name, Start: begin.Sub(t.start), End: end.Sub(t.start)})
}

// Note attaches a short annotation ("cache-hit", "join-inflight", …).
func (t *Trace) Note(note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.notes = append(t.notes, note)
}

// SetAttr attaches a structured key/value attribute to the trace,
// surfaced as attrs in snapshots. Unlike Note (a free-form breadcrumb),
// attrs are for identifiers worth filtering on — a sweep unit's job ID,
// unit index, and tenant — so /v1/debug/requests can answer "show me the
// units of job X" without string-parsing notes.
func (t *Trace) SetAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attrs == nil {
		t.attrs = make(map[string]string, 4)
	}
	t.attrs[key] = value
}

// SetFlight attaches a flight-recorder dump. It may be called after Finish:
// a computation that outlives its waiters (all of them timed out) still
// reports its dump into the trace, and snapshots taken afterwards see it.
func (t *Trace) SetFlight(d *FlightDump) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flight = d
}

// Finish closes the trace with the response status; err may be nil. It is
// idempotent (the first call wins), since a slow computation may race a
// timed-out waiter.
func (t *Trace) Finish(status int, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.status = status
	t.duration = time.Since(t.start)
	if err != nil {
		t.errMsg = err.Error()
	}
}

// TraceSnapshot is an immutable copy of a trace, shaped for JSON.
type TraceSnapshot struct {
	ID           string            `json:"id"`
	TraceID      string            `json:"trace_id,omitempty"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Endpoint     string            `json:"endpoint"`
	Start        time.Time         `json:"start"`
	DurationMs   float64           `json:"duration_ms"`
	Status       int               `json:"status"`
	Error        string            `json:"error,omitempty"`
	Notes        []string          `json:"notes,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Spans        []SpanSnapshot    `json:"spans,omitempty"`
	SpansDropped int               `json:"spans_dropped,omitempty"`
	Flight       *FlightDump       `json:"flight,omitempty"`
}

// SpanSnapshot is one span in a TraceSnapshot.
type SpanSnapshot struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// Snapshot deep-copies the trace's current state. Safe to call while other
// goroutines are still adding spans (a late flight dump, a straggling
// computation): such additions simply show up in later snapshots.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TraceSnapshot{
		ID:           t.id,
		TraceID:      t.traceID,
		SpanID:       t.spanID,
		ParentSpanID: t.parentSpanID,
		Endpoint:     t.endpoint,
		Start:        t.start,
		DurationMs:   float64(t.duration) / float64(time.Millisecond),
		Status:       t.status,
		Error:        t.errMsg,
		Notes:        append([]string(nil), t.notes...),
		SpansDropped: t.spansDropped,
		Flight:       t.flight,
	}
	if len(t.attrs) > 0 {
		snap.Attrs = make(map[string]string, len(t.attrs))
		for k, v := range t.attrs {
			snap.Attrs[k] = v
		}
	}
	if !t.done {
		snap.DurationMs = float64(time.Since(t.start)) / float64(time.Millisecond)
	}
	for _, sp := range t.spans {
		snap.Spans = append(snap.Spans, SpanSnapshot{
			Name:    sp.Name,
			StartUs: float64(sp.Start) / float64(time.Microsecond),
			DurUs:   float64(sp.End-sp.Start) / float64(time.Microsecond),
		})
	}
	return snap
}

// ctxKey keys the trace in a context.Context.
type ctxKey struct{}

// WithTrace attaches tr to ctx.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace attached to ctx, or nil. The nil result is
// a valid receiver for every Trace method, so callers never need to check.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}
