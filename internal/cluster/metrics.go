package cluster

import "repro/internal/metrics"

// Metrics is the router's metrics, declared in the embedded registry the
// router's /metrics renders, in the same format as the backend's
// (service.Metrics); the hexd_cluster_* prefix keeps one fleet-wide
// scrape config working for both roles. Each peer's up state is read
// from the peer set at scrape time.
type Metrics struct {
	*metrics.Registry
	// Requests counts router HTTP requests per endpoint.
	Requests map[string]*metrics.Counter
	// Coalesced counts requests that joined an in-flight forward instead
	// of leaving the router — the fleet-wide dedup at work.
	Coalesced *metrics.Counter
	// Forwards and ForwardErrors count router→backend hops per peer
	// (errors are transport failures and 5xx re-home triggers, not
	// pass-through client errors).
	Forwards, ForwardErrors []*metrics.Counter
	// Rehomes counts forwards served by a peer other than the key's
	// first-ranked owner — the observable face of rendezvous fallback.
	Rehomes *metrics.Counter
	// Busy counts requests shed with 429 because the forward semaphore
	// was full.
	Busy *metrics.Counter
	// HealthChecks and HealthFailures count liveness probes per peer;
	// Transitions counts up↔down state changes per peer.
	HealthChecks, HealthFailures, Transitions []*metrics.Counter
}

// newMetrics declares the router's families in page order for the given
// peer set.
func newMetrics(ps *peerSet) *Metrics {
	r := &metrics.Registry{}
	m := &Metrics{Registry: r, Requests: make(map[string]*metrics.Counter)}
	for _, ep := range []string{"run", "spec"} {
		m.Requests[ep] = r.Counter("hexd_cluster_requests_total", "Router HTTP requests, by endpoint.", "endpoint", ep)
	}
	m.Coalesced = r.Counter("hexd_cluster_coalesced_total", "Requests coalesced onto an in-flight forward.")
	m.Rehomes = r.Counter("hexd_cluster_rehomes_total", "Forwards served by a fallback peer instead of the key's owner.")
	m.Busy = r.Counter("hexd_cluster_busy_total", "Requests shed because the forward concurrency limit was reached.")
	perPeer := func(name, help string) []*metrics.Counter {
		cs := make([]*metrics.Counter, len(ps.urls))
		for i, p := range ps.urls {
			cs[i] = r.Counter(name, help, "peer", p)
		}
		return cs
	}
	m.Forwards = perPeer("hexd_cluster_forwards_total", "Router-to-backend forwards, by peer.")
	m.ForwardErrors = perPeer("hexd_cluster_forward_errors_total", "Failed forwards (transport errors, 5xx re-homes), by peer.")
	m.HealthChecks = perPeer("hexd_cluster_health_checks_total", "Health probes sent, by peer.")
	m.HealthFailures = perPeer("hexd_cluster_health_failures_total", "Health probes failed, by peer.")
	m.Transitions = perPeer("hexd_cluster_peer_transitions_total", "Peer up/down state changes, by peer.")
	for i, p := range ps.urls {
		r.GaugeFunc("hexd_cluster_peer_up", "Peer health (1 up, 0 down), by peer.", func() int64 {
			if ps.isUp(i) {
				return 1
			}
			return 0
		}, "peer", p)
	}
	return m
}
