package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/coalesce"
	"repro/internal/obs"
)

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
	mux.Handle("/v1/debug/requests", s.ring)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
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

	tr := obs.StartTrace(r, rid, endpoint)
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
	obs.LogRequest(s.opts.Logger, "request", tr)
}

// writeError maps pipeline errors to HTTP statuses and returns the status
// it wrote.
func (s *Service) writeError(w http.ResponseWriter, rid string, err error) int {
	var bad errBadRequest
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		obs.WriteError(w, http.StatusTooManyRequests, "queue full; retry later", rid)
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		obs.WriteError(w, http.StatusServiceUnavailable, "shutting down", rid)
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		s.Metrics.DeadlineExceeded.Inc()
		obs.WriteError(w, http.StatusGatewayTimeout, "deadline exceeded", rid)
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		obs.WriteError(w, http.StatusGatewayTimeout, "request cancelled", rid)
		return http.StatusGatewayTimeout
	case errors.As(err, &bad):
		obs.WriteError(w, http.StatusBadRequest, bad.Error(), rid)
		return http.StatusBadRequest
	default:
		obs.WriteError(w, http.StatusInternalServerError, err.Error(), rid)
		return http.StatusInternalServerError
	}
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	s.Metrics.Requests["run"].Inc()
	rid := obs.EchoRequestID(w, r)
	if r.Method != http.MethodPost {
		obs.WriteError(w, http.StatusMethodNotAllowed, "POST only", rid)
		return
	}
	var req RunRequest
	if err := obs.DecodeBody(w, r, &req); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error(), rid)
		return
	}
	if err := req.Normalize(s.opts); err != nil {
		obs.WriteError(w, http.StatusBadRequest, err.Error(), rid)
		return
	}
	req.flightArm = s.opts.FlightEvents > 0 && r.URL.Query().Get("trace") == "1"
	s.serve(w, r, "run", rid, req.TimeoutMs, req.CanonicalKey(),
		func(ctx context.Context) (*coalesce.Value, error) { return s.computeRun(ctx, req) })
}

func (s *Service) handleSpec(w http.ResponseWriter, r *http.Request) {
	s.Metrics.Requests["spec"].Inc()
	rid := obs.EchoRequestID(w, r)
	if r.Method != http.MethodPost {
		obs.WriteError(w, http.StatusMethodNotAllowed, "POST only", rid)
		return
	}
	var req SpecRequest
	if err := obs.DecodeBody(w, r, &req); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error(), rid)
		return
	}
	if err := req.Normalize(s.opts); err != nil {
		obs.WriteError(w, http.StatusBadRequest, err.Error(), rid)
		return
	}
	s.serve(w, r, "spec", rid, req.TimeoutMs, req.CanonicalKey(),
		func(ctx context.Context) (*coalesce.Value, error) { return s.computeSpec(ctx, req) })
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Closed() {
		obs.WriteError(w, http.StatusServiceUnavailable, "draining", "")
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
