package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/coalesce"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/service"
)

// ErrBusy is returned when the router's forward concurrency limit is
// reached; the HTTP layer sheds the request with 429. It wraps
// service.ErrQueueFull, so a sweep unit the router sheds is retried like
// one a backend's full queue sheds.
var ErrBusy = fmt.Errorf("cluster: too many forwards in flight: %w", service.ErrQueueFull)

// maxForwards bounds concurrently in-flight forwards; beyond it, requests
// are shed with 429.
const maxForwards = 256

// Options configure a Router. Peers is required; the zero value of every
// other field selects a sane default.
type Options struct {
	// Peers is the static list of backend base URLs
	// ("http://host:port", no trailing slash). Placement is a pure
	// function of (canonical key, Peers), so every router given the
	// same list routes identically.
	Peers []string
	// Service carries the admission limits (MaxNodes, MaxRuns, deadline
	// clamps) the router enforces before forwarding — a request the
	// fleet would reject is refused at the door. Worker/queue/store
	// fields are ignored: the router executes nothing locally.
	Service service.Options
	// HealthInterval is the period of the /healthz probe loop
	// (default 2s); HealthTimeout bounds one probe (default 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// FailThreshold is the number of consecutive probe or forward
	// failures that take a peer down (default 2). A single successful
	// probe brings it back.
	FailThreshold int
	// Retries is the total number of forward attempts per request
	// across owner and fallback (default 3); Backoff is the sleep
	// before the second attempt, doubling per attempt (default 50ms).
	Retries int
	Backoff time.Duration
	// TraceRing bounds the router's GET /v1/debug/requests ring
	// (default 64; negative disables).
	TraceRing int
	// Logger receives the router's structured request log (default
	// slog.Default()).
	Logger *slog.Logger
	// Exporter, when non-nil, receives every completed router trace for
	// OTLP export; a nil exporter is a valid no-op. Router spans parent
	// the backend spans they cause (the forwarded traceparent carries the
	// router trace's span-id), so the collector renders one stitched tree
	// per fleet request.
	Exporter *export.Exporter
	// Client issues forwards and health probes (default: a dedicated
	// transport with per-peer connection pooling).
	Client *http.Client
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	o.Service = o.Service.Resolved()
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.TraceRing == 0 {
		o.TraceRing = 64
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return o
}

// Router fronts a fleet of hexd backends: it canonicalizes requests with
// the same code the backends use, coalesces identical concurrent
// requests into one forward, and rendezvous-routes each canonical key to
// its owning (or, on node loss, fallback) backend. Construct with New;
// all methods are safe for concurrent use.
type Router struct {
	opts     Options
	peerURLs []string
	peers    *peerSet
	coal     *coalesce.Coalescer
	Metrics  *Metrics
	ring     *obs.Ring
	client   *http.Client
	sem      chan struct{}

	stop chan struct{}
	wg   sync.WaitGroup
}

// New starts a Router and its health-probe loop.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Peers) == 0 {
		return nil, errors.New("cluster: at least one peer is required")
	}
	urls := make([]string, len(opts.Peers))
	seen := make(map[string]bool, len(opts.Peers))
	for i, p := range opts.Peers {
		u := strings.TrimRight(strings.TrimSpace(p), "/")
		if u == "" || (!strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://")) {
			return nil, fmt.Errorf("cluster: peer %q is not an http(s) base URL", p)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", u)
		}
		seen[u] = true
		urls[i] = u
	}
	peers := newPeerSet(urls, opts.FailThreshold)
	r := &Router{
		opts:     opts,
		peerURLs: urls,
		peers:    peers,
		Metrics:  newMetrics(peers),
		ring:     obs.NewRing(opts.TraceRing),
		client:   opts.Client,
		sem:      make(chan struct{}, maxForwards),
		stop:     make(chan struct{}),
	}
	r.peers.onTransition = func(i int, up bool) {
		r.Metrics.Transitions[i].Inc()
		if up {
			r.opts.Logger.Info("peer up", "peer", urls[i])
		} else {
			r.opts.Logger.Warn("peer down", "peer", urls[i])
		}
	}
	// No result cache: the owning shard's LRU and store already answer
	// repeats, so the router only coalesces concurrent identical requests.
	r.coal = coalesce.New(0, coalesce.Hooks{
		Submit: r.submit,
		OnJoin: r.Metrics.Coalesced.Inc,
	})
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// submit is the coalescer's executor hook on the router: each flight is
// one forwarding goroutine, bounded by the maxForwards semaphore. Called
// with the coalescer's lock held, so the try-acquire must not block.
func (r *Router) submit(run func()) error {
	select {
	case r.sem <- struct{}{}:
	default:
		r.Metrics.Busy.Inc()
		return ErrBusy
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() { <-r.sem }()
		run()
	}()
	return nil
}

// Peers returns the router's peer list in configuration order.
func (r *Router) Peers() []string { return append([]string(nil), r.peerURLs...) }

// Ring returns the router's completed-request trace ring, so auxiliary
// request sources (the sweep-jobs manager) can land their traces next to
// proxied requests in GET /v1/debug/requests.
func (r *Router) Ring() *obs.Ring { return r.ring }

// Close stops the health loop, refuses new flights, and waits for
// in-flight forwards to finish. Idempotent is not required of it — the
// daemon calls it exactly once at drain.
func (r *Router) Close() {
	r.coal.Close()
	close(r.stop)
	r.wg.Wait()
}

// Handler returns the router's HTTP API — the same surface a single
// backend serves, so clients need not know whether they talk to one node
// or a fleet:
//
//	POST /v1/run            — canonicalize, coalesce, forward to the owning shard
//	POST /v1/spec           — likewise
//	GET  /v1/debug/requests — ring of recently completed router traces
//	GET  /healthz           — fleet health: ok / degraded (some peers down) / 503 (none up or draining)
//	GET  /metrics           — hexd_cluster_* Prometheus metrics
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, req *http.Request) { r.handleProxy(w, req, "run") })
	mux.HandleFunc("/v1/spec", func(w http.ResponseWriter, req *http.Request) { r.handleProxy(w, req, "spec") })
	mux.Handle("/v1/debug/requests", r.ring)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/metrics", r.handleMetrics)
	return mux
}

// handleProxy runs the router pipeline for one endpoint: canonicalize →
// coalesce fleet-wide → forward to the owning shard → replay.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request, endpoint string) {
	r.Metrics.Requests[endpoint].Inc()
	rid := obs.EchoRequestID(w, req)
	if req.Method != http.MethodPost {
		obs.WriteError(w, http.StatusMethodNotAllowed, "POST only", rid)
		return
	}
	// Every backend hop of this request carries its W3C trace-id, so
	// /v1/debug/requests correlates fleet-wide: an incoming one is
	// propagated, and the router mints one when none arrives.
	tr := obs.StartTrace(req, rid, endpoint)
	if tr.TraceID() == "" {
		tr.SetTraceID(obs.NewTraceID())
	}
	raw, err := obs.ReadBody(w, req)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, "reading body: "+err.Error(), rid)
		return
	}
	// Canonicalize with the backends' own code so the router shards on
	// exactly the key the backend will cache and store under. The
	// original bytes are what gets forwarded — the backend re-derives
	// the same key from them.
	key, timeoutMs, err := canonicalize(endpoint, raw, r.opts.Service)
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, err.Error(), rid)
		return
	}
	timeout := service.RequestTimeout(timeoutMs, r.opts.Service)
	ctx, cancel := context.WithTimeout(req.Context(), timeout)
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)

	path := req.URL.Path
	if q := req.URL.RawQuery; q != "" {
		path += "?" + q
	}
	// The forwarded traceparent names THIS trace's span as the parent, so
	// the backend's span nests under the router hop in the exported tree.
	tp := obs.FormatTraceparent(tr.TraceID(), tr.SpanID())
	val, err := r.coal.Do(ctx, timeout, key, func(fctx context.Context) (*coalesce.Value, error) {
		return r.forward(fctx, path, key, raw, rid, tp)
	})
	status := http.StatusOK
	if err != nil {
		status = r.writeError(w, rid, err)
	} else {
		w.Header().Set("Content-Type", val.ContentType)
		w.Header().Set("X-Hexd-Events", fmt.Sprintf("%d", val.Events))
		w.Write(val.Body)
	}
	tr.Finish(status, err)
	r.ring.Add(tr)
	r.opts.Exporter.Export(tr)
	obs.LogRequest(r.opts.Logger, "router request", tr)
}

// RunUnits executes normalized single-run requests through the full
// router pipeline — fleet-wide coalescing, rendezvous routing to each
// key's owning shard, retry with deterministic re-homing — exactly as if
// each one's JSON had arrived as its own POST /v1/run. It exists for the
// jobs layer (it satisfies jobs.Runner structurally, without this
// package importing jobs): a sweep submitted to a router fans its units
// out across the fleet by key ownership, and each unit still dedupes
// against interactive traffic and other sweeps touching the same key.
//
// The units are forwarded one after another, so a batch holds at most
// one forward at a time, and none is forwarded once ctx is done. ctx
// carries the caller's trace (a sweep batch's), which parents the
// backend spans the forwards cause. A unit refused for capacity — the
// router at maxForwards (ErrBusy) or a shard's 429 — reports an error
// matching service.ErrQueueFull.
func (r *Router) RunUnits(ctx context.Context, timeout time.Duration, reqs []service.RunRequest) ([]*coalesce.Value, []error) {
	vals := make([]*coalesce.Value, len(reqs))
	errs := make([]error, len(reqs))
	tr := obs.FromContext(ctx)
	rid, tp := tr.ID(), obs.FormatTraceparent(tr.TraceID(), tr.SpanID())
	for i, req := range reqs {
		if errs[i] = ctx.Err(); errs[i] != nil {
			continue
		}
		raw, err := json.Marshal(req)
		if err != nil {
			errs[i] = err
			continue
		}
		key := req.CanonicalKey()
		vals[i], errs[i] = r.coal.Do(ctx, timeout, key, func(fctx context.Context) (*coalesce.Value, error) {
			return r.forward(fctx, "/v1/run", key, raw, rid, tp)
		})
	}
	return vals, errs
}

// Flush is jobs.Runner's durability barrier. A router-hosted manager has
// no store, and each shard's own write-behind makes its results durable,
// so there is nothing to wait for.
func (r *Router) Flush(context.Context) error { return nil }

// canonicalize derives the canonical key and requested deadline from a
// raw request body using the service layer's normalization.
func canonicalize(endpoint string, raw []byte, sopts service.Options) (key string, timeoutMs int64, err error) {
	switch endpoint {
	case "run":
		var rr service.RunRequest
		if err := obs.DecodeStrict(raw, &rr); err != nil {
			return "", 0, fmt.Errorf("invalid JSON body: %w", err)
		}
		if err := rr.Normalize(sopts); err != nil {
			return "", 0, err
		}
		return rr.CanonicalKey(), rr.TimeoutMs, nil
	case "spec":
		var sr service.SpecRequest
		if err := obs.DecodeStrict(raw, &sr); err != nil {
			return "", 0, fmt.Errorf("invalid JSON body: %w", err)
		}
		if err := sr.Normalize(sopts); err != nil {
			return "", 0, err
		}
		return sr.CanonicalKey(), sr.TimeoutMs, nil
	}
	return "", 0, fmt.Errorf("unknown endpoint %q", endpoint)
}

// writeError maps pipeline errors to HTTP statuses. Backend non-2xx
// answers pass through with their original status and body.
func (r *Router) writeError(w http.ResponseWriter, rid string, err error) int {
	var be *backendError
	switch {
	case errors.As(err, &be):
		w.Header().Set("Content-Type", be.contentType)
		w.WriteHeader(be.status)
		w.Write(be.body)
		return be.status
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		obs.WriteError(w, http.StatusTooManyRequests, "router busy; retry later", rid)
		return http.StatusTooManyRequests
	case errors.Is(err, coalesce.ErrShuttingDown):
		obs.WriteError(w, http.StatusServiceUnavailable, "shutting down", rid)
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		obs.WriteError(w, http.StatusGatewayTimeout, "deadline exceeded", rid)
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		obs.WriteError(w, http.StatusGatewayTimeout, "request cancelled", rid)
		return http.StatusGatewayTimeout
	default:
		obs.WriteError(w, http.StatusBadGateway, err.Error(), rid)
		return http.StatusBadGateway
	}
}

// healthzResponse is the router's /healthz body.
type healthzResponse struct {
	// Status is "ok" (all peers up), "degraded" (some peers down — the
	// fleet still serves, with down peers' keys re-homed), or
	// "unavailable" (no peer up, or draining).
	Status string       `json:"status"`
	Peers  []PeerStatus `json:"peers"`
}

// handleHealthz reports fleet health honestly instead of a flat 200: a
// router whose peer set has down members answers "degraded" with the
// per-peer detail, and a router that can reach no backend at all (or is
// draining) answers 503 so load balancers stop sending it traffic.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.coal.Closed() {
		obs.WriteError(w, http.StatusServiceUnavailable, "draining", "")
		return
	}
	resp := healthzResponse{Status: "ok", Peers: r.peers.status()}
	code := http.StatusOK
	switch down := r.peers.downCount(); {
	case down == len(r.peerURLs):
		resp.Status = "unavailable"
		code = http.StatusServiceUnavailable
	case down > 0:
		resp.Status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.Metrics.WriteText(w)
}
