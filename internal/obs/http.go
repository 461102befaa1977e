package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"time"
)

// The request envelope every hexd endpoint shares, on a backend and on a
// router alike: the X-Request-ID echo, the {"error","request_id"} body,
// the strict JSON decode capped at maxBodyBytes, the request trace that
// adopts an incoming traceparent, the request log line, and a Ring served
// as GET /v1/debug/requests. What differs between the roles, what
// executes a request and how its errors map to statuses, stays with each
// role.

// maxBodyBytes bounds a request body; hexd's requests are tiny.
const maxBodyBytes = 1 << 20

// errorBody is the JSON body of every non-2xx API response. RequestID
// lets a client quote the failing request when reporting a problem; the
// same ID appears in the server's log line for the rejection.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// WriteError answers with status code and the {"error","request_id"} body.
func WriteError(w http.ResponseWriter, code int, msg, rid string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg, RequestID: rid})
}

// EchoRequestID resolves the request's ID, honoring a sane client-supplied
// X-Request-ID (see RequestID), and echoes it on the response.
func EchoRequestID(w http.ResponseWriter, r *http.Request) string {
	rid := RequestID(r.Header.Get("X-Request-ID"))
	w.Header().Set("X-Request-ID", rid)
	return rid
}

// DecodeBody strictly decodes the request body into v: an unknown field is
// an error, and so is a body over maxBodyBytes. The error is the
// decoder's own; the caller words the response.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// ReadBody returns the request body's bytes, failing past maxBodyBytes,
// for a caller that forwards the original bytes.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

// DecodeStrict decodes a body ReadBody returned as DecodeBody decodes a
// live one, so a typo fails at a router instead of computing the wrong
// simulation on a shard.
func DecodeStrict(raw []byte, v any) error { return decodeStrict(bytes.NewReader(raw), v) }

func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// StartTrace starts the trace of an HTTP request. A W3C traceparent
// (forwarded by the cluster router, or sent by any tracing-aware client)
// correlates it with the fleet-wide trace: every node serving a hop of
// the same request shows the same trace_id in /v1/debug/requests, and the
// sender's span-id parents this trace so the OTLP export stitches into
// one tree. Without a valid traceparent the trace has no trace-id yet.
func StartTrace(r *http.Request, rid, endpoint string) *Trace {
	tr := NewTrace(rid, endpoint)
	if tid, pid, ok := ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
		tr.traceID, tr.parentSpanID = tid, pid
	}
	return tr
}

// LogRequest writes the structured log line of a request whose trace has
// finished: Debug "<subject> served" for a success, Warn "<subject>
// failed" for every rejection or failure (429 shed load, 504 deadline,
// 5xx), so operators can grep the request_id a client quotes from an
// error body.
func LogRequest(l *slog.Logger, subject string, tr *Trace) {
	tr.mu.Lock()
	status := tr.status
	args := []any{
		"request_id", tr.id,
		"endpoint", tr.endpoint,
		"status", status,
		"dur_ms", float64(tr.duration) / float64(time.Millisecond),
	}
	if tr.errMsg != "" {
		args = append(args, "err", tr.errMsg)
	}
	tr.mu.Unlock()
	if status >= 400 {
		l.Warn(subject+" failed", args...)
		return
	}
	l.Debug(subject+" served", args...)
}

// ServeHTTP serves the ring as GET /v1/debug/requests: the retained
// traces, newest first. A trace whose computation is still running (a
// straggler that outlived its waiters) appears with its spans so far; a
// later read sees the finished version, including any flight dump
// attached after the fact.
func (r *Ring) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	rid := EchoRequestID(w, req)
	if req.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only", rid)
		return
	}
	snaps := r.Snapshots()
	if snaps == nil {
		snaps = []TraceSnapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snaps)
}
