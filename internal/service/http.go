package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/coalesce"
	"repro/internal/obs"
)

// maxBodyBytes bounds request bodies; simulation requests are tiny.
const maxBodyBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /v1/run            — one single-pulse simulation (stats JSON, CSV, or SVG);
//	                          ?trace=1 arms the sim flight recorder
//	POST /v1/spec           — a multi-run experiment.Spec, aggregate skew statistics
//	GET  /v1/debug/requests — ring of recently completed request traces
//	GET  /healthz           — liveness (503 while draining)
//	GET  /metrics           — Prometheus text-format metrics
//
// Every response carries an X-Request-ID header, echoing the request's own
// X-Request-ID when one was supplied, so clients and server logs correlate.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/spec", s.handleSpec)
	mux.HandleFunc("/v1/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// errorResponse is the JSON body of every non-2xx API response. RequestID
// lets a client quote the failing request when reporting an issue; the same
// ID appears in the server's log line for the rejection.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSONError(w http.ResponseWriter, code int, msg, rid string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg, RequestID: rid})
}

// decodeJSON strictly decodes the request body into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// serve runs the shared request pipeline: canonicalize → deadline →
// cache/dedup/queue → error mapping → body replay. It owns the request's
// trace: created here, threaded through the pipeline via the context,
// finished with the response status, published to the debug ring, and
// reflected as one structured log line.
func (s *Service) serve(w http.ResponseWriter, r *http.Request, endpoint, rid string,
	timeoutMs int64, key string, compute func(context.Context) (*coalesce.Value, error)) {
	start := time.Now()
	defer func() { s.Metrics.Latency[endpoint].ObserveDuration(time.Since(start)) }()

	tr := obs.NewTrace(rid, endpoint)
	// A W3C traceparent (forwarded by the cluster router, or sent by any
	// tracing-aware client) correlates this node's trace with the
	// fleet-wide one: every node serving a hop of the same request shows
	// the same trace_id in /v1/debug/requests, and the sender's span-id
	// parents this trace so the OTLP export stitches into one tree.
	if tid, pid, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		tr.SetTraceID(tid)
		tr.SetParentSpanID(pid)
	}
	timeout := RequestTimeout(timeoutMs, s.opts)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	val, err := s.result(obs.WithTrace(ctx, tr), timeout, key, compute)
	status := http.StatusOK
	if err != nil {
		status = s.writeError(w, rid, err)
	} else {
		w.Header().Set("Content-Type", val.ContentType)
		w.Header().Set("X-Hexd-Events", fmt.Sprintf("%d", val.Events))
		w.Write(val.Body)
	}
	tr.Finish(status, err)
	s.ring.Add(tr)
	s.opts.Exporter.Export(tr)
	s.logRequest(endpoint, rid, status, time.Since(start), err)
}

// logRequest emits the request's structured log line: Debug for successes,
// Warn for every rejection or failure (429 shed load, 504 deadline, 5xx)
// so operators can grep the request_id a client quotes from an error body.
func (s *Service) logRequest(endpoint, rid string, status int, d time.Duration, err error) {
	args := []any{
		"request_id", rid,
		"endpoint", endpoint,
		"status", status,
		"dur_ms", float64(d) / float64(time.Millisecond),
	}
	if err != nil {
		args = append(args, "err", err.Error())
	}
	if status >= 400 {
		s.opts.Logger.Warn("request failed", args...)
		return
	}
	s.opts.Logger.Debug("request served", args...)
}

// writeError maps pipeline errors to HTTP statuses and returns the status
// it wrote.
func (s *Service) writeError(w http.ResponseWriter, rid string, err error) int {
	var bad errBadRequest
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusTooManyRequests, "queue full; retry later", rid)
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		writeJSONError(w, http.StatusServiceUnavailable, "shutting down", rid)
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		s.Metrics.DeadlineExceeded.Inc()
		writeJSONError(w, http.StatusGatewayTimeout, "deadline exceeded", rid)
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		writeJSONError(w, http.StatusGatewayTimeout, "request cancelled", rid)
		return http.StatusGatewayTimeout
	case errors.As(err, &bad):
		writeJSONError(w, http.StatusBadRequest, bad.Error(), rid)
		return http.StatusBadRequest
	default:
		writeJSONError(w, http.StatusInternalServerError, err.Error(), rid)
		return http.StatusInternalServerError
	}
}

// requestID resolves the request's ID (honoring a sane client-supplied
// X-Request-ID) and echoes it on the response.
func requestID(w http.ResponseWriter, r *http.Request) string {
	rid := obs.RequestID(r.Header.Get("X-Request-ID"))
	w.Header().Set("X-Request-ID", rid)
	return rid
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	s.Metrics.Requests["run"].Inc()
	rid := requestID(w, r)
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only", rid)
		return
	}
	var req RunRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error(), rid)
		return
	}
	if err := req.Normalize(s.opts); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error(), rid)
		return
	}
	req.flightArm = s.opts.FlightEvents > 0 && r.URL.Query().Get("trace") == "1"
	s.serve(w, r, "run", rid, req.TimeoutMs, req.CanonicalKey(),
		func(ctx context.Context) (*coalesce.Value, error) { return s.computeRun(ctx, req) })
}

func (s *Service) handleSpec(w http.ResponseWriter, r *http.Request) {
	s.Metrics.Requests["spec"].Inc()
	rid := requestID(w, r)
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only", rid)
		return
	}
	var req SpecRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error(), rid)
		return
	}
	if err := req.Normalize(s.opts); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error(), rid)
		return
	}
	s.serve(w, r, "spec", rid, req.TimeoutMs, req.CanonicalKey(),
		func(ctx context.Context) (*coalesce.Value, error) { return s.computeSpec(ctx, req) })
}

// handleDebugRequests serves the ring of recently completed request traces,
// newest first. A trace whose computation is still running (a straggler
// that outlived its waiters) appears with its spans so far; a later scrape
// sees the finished version, including any flight dump attached after the
// fact.
func (s *Service) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w, r)
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only", rid)
		return
	}
	snaps := s.ring.Snapshots()
	if snaps == nil {
		snaps = []obs.TraceSnapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snaps)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Closed() {
		writeJSONError(w, http.StatusServiceUnavailable, "draining", "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","queue_depth":%d,"in_flight":%d}`+"\n",
		s.queued(), s.Metrics.InFlight.Value())
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.Metrics.WriteText(w)
}
