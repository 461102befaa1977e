package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/coalesce"
	"repro/internal/obs"
	"repro/internal/service"
)

// backendError carries a backend's non-2xx answer through the coalescer
// so the router replays it verbatim (status, content type, body) to
// every waiter. It is an error — the coalescer caches only successes —
// but not a router failure: 400s and 429s belong to the backend that
// issued them.
type backendError struct {
	status      int
	contentType string
	body        []byte
}

func (e *backendError) Error() string {
	return fmt.Sprintf("backend answered %d: %s", e.status, bytes.TrimSpace(e.body))
}

// Unwrap makes a shard's 429 match service.ErrQueueFull, so a sweep unit
// shed by its owner is retried like one shed by a local queue. Other
// statuses wrap nothing.
func (e *backendError) Unwrap() error {
	if e.status == http.StatusTooManyRequests {
		return service.ErrQueueFull
	}
	return nil
}

// maxForwardResponse bounds a backend response body (64 MiB — far above
// the largest SVG/CSV a MaxNodes-sized grid renders).
const maxForwardResponse = 64 << 20

// forward sends the request to the canonical key's owning peer, with
// retry-with-backoff and deterministic re-homing: each attempt goes to
// the highest-rendezvous-ranked peer that is up and has not failed this
// request yet, so losing the owner falls back to the key's second-ranked
// peer (and so on), identically on every router. Transport failures and
// 503 (a draining backend) count against the peer's health and trigger
// the next attempt; any other backend answer — success or client error —
// is final.
func (r *Router) forward(ctx context.Context, path, key string, body []byte, rid, traceparent string) (*coalesce.Value, error) {
	tr := obs.FromContext(ctx)
	ranked := Rank(key, r.peerURLs)
	owner := ranked[0]
	tried := make([]bool, len(r.peerURLs))
	var lastErr error
	for attempt := 0; attempt < r.opts.Retries; attempt++ {
		if attempt > 0 {
			// Exponential backoff between attempts, cut short by the
			// flight's deadline.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(r.opts.Backoff << (attempt - 1)):
			}
		}
		peer := r.pickPeer(ranked, tried)
		if peer < 0 {
			break // every peer tried this request
		}
		tried[peer] = true
		val, final, err := r.attempt(ctx, peer, path, body, rid, traceparent)
		if err == nil {
			if peer != owner {
				r.Metrics.Rehomes.Inc()
				tr.Note("rehomed")
			}
			return val, nil
		}
		if final {
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no reachable peer for key %s", key)
	}
	return nil, lastErr
}

// pickPeer returns the highest-ranked untried peer, preferring up peers:
// a down peer is only attempted once every up peer has been tried (the
// health view may be stale — a "down" peer is still worth a last shot
// before failing the request).
func (r *Router) pickPeer(ranked []int, tried []bool) int {
	for _, i := range ranked {
		if !tried[i] && r.peers.isUp(i) {
			return i
		}
	}
	for _, i := range ranked {
		if !tried[i] {
			return i
		}
	}
	return -1
}

// attempt performs one forward to one peer. final reports that the
// answer (success or error) must not trigger another attempt.
func (r *Router) attempt(ctx context.Context, peer int, path string, body []byte, rid, traceparent string) (val *coalesce.Value, final bool, err error) {
	base := r.peerURLs[peer]
	tr := obs.FromContext(ctx)
	endSpan := tr.StartSpan("forward " + base)
	defer endSpan()
	r.Metrics.Forwards[peer].Inc()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	req.Header.Set(obs.TraceparentHeader, traceparent)
	resp, err := r.client.Do(req)
	if err != nil {
		r.Metrics.ForwardErrors[peer].Inc()
		r.peers.reportFailure(peer)
		tr.Note("forward-error " + base)
		return nil, false, fmt.Errorf("forward to %s: %w", base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardResponse+1))
	if err != nil {
		r.Metrics.ForwardErrors[peer].Inc()
		r.peers.reportFailure(peer)
		return nil, false, fmt.Errorf("reading %s response: %w", base, err)
	}
	if len(data) > maxForwardResponse {
		return nil, true, fmt.Errorf("%s response exceeds %d bytes", base, maxForwardResponse)
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		r.peers.reportSuccess(peer)
		events, _ := strconv.ParseUint(resp.Header.Get("X-Hexd-Events"), 10, 64)
		tr.Note("served-by " + base)
		return &coalesce.Value{
			Body:        data,
			ContentType: resp.Header.Get("Content-Type"),
			Events:      events,
		}, false, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		// The backend is draining (or refusing work): health-relevant
		// and retryable on the next-ranked peer.
		r.Metrics.ForwardErrors[peer].Inc()
		r.peers.reportFailure(peer)
		tr.Note("peer-draining " + base)
		return nil, false, fmt.Errorf("%s is unavailable", base)
	default:
		// Any other status is the backend's deliberate verdict on this
		// request (400 invalid, 429 shed, 500, 504 deadline): pass it
		// through rather than re-homing — re-homing a 429 would defeat
		// the shard's load shedding by duplicating its work elsewhere.
		return nil, true, &backendError{
			status:      resp.StatusCode,
			contentType: resp.Header.Get("Content-Type"),
			body:        data,
		}
	}
}
