package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by a delta.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed cumulative buckets, plus a
// running sum and count, in the style of a Prometheus histogram.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, strictly increasing
	counts []uint64  // per-bucket (non-cumulative); len(bounds)+1 with +Inf
	sum    float64
	count  uint64
}

// newHistogram returns a histogram over the given upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// defLatencyBounds covers 100µs .. ~100s in roughly 4x steps, in seconds.
var defLatencyBounds = []float64{0.0001, 0.0005, 0.002, 0.01, 0.05, 0.25, 1, 5, 25, 100}

// defEventBounds covers the events-per-run range from a trivial grid (a few
// hundred events) to the largest sweeps, in 1-3-10 steps.
var defEventBounds = []float64{100, 300, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7}

// defDepthBounds covers queue occupancy in powers of two up to the default
// queue capacity.
var defDepthBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// defRunSecondsBounds covers a single simulation run's wall time, from a
// sub-millisecond toy grid to a deadline-bounded multi-minute run, in
// roughly 4x steps (seconds).
var defRunSecondsBounds = []float64{0.0002, 0.001, 0.004, 0.016, 0.064, 0.25, 1, 4, 16, 64}

// NewHistogram returns a histogram over the given upper bounds, for
// registries (the jobs manager's, the cluster router's) that extend the
// service's metric surface with their own families.
func NewHistogram(bounds []float64) *Histogram { return newHistogram(bounds) }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Metrics is the service's metric registry. All fields are safe for
// concurrent use; the zero value is not usable, construct with NewMetrics.
type Metrics struct {
	// Requests counts HTTP requests per endpoint.
	Requests map[string]*Counter
	// Latency tracks per-endpoint request latency in seconds.
	Latency map[string]*Histogram
	// CacheHits / CacheMisses count result-cache lookups.
	CacheHits, CacheMisses *Counter
	// DedupJoins counts requests coalesced onto an in-flight computation.
	DedupJoins *Counter
	// QueueRejects counts submissions rejected because the queue was full.
	QueueRejects *Counter
	// DeadlineExceeded counts requests that missed their deadline.
	DeadlineExceeded *Counter
	// SimRuns counts simulations actually executed (post-cache, post-dedup).
	SimRuns *Counter
	// SimEvents accumulates sim.Engine.Executed over all runs, including
	// the partial event counts of cancelled runs.
	SimEvents *Counter
	// ArmTriggered counts runs whose outcome tripped the arm policy;
	// ArmReruns counts the deterministic recorder-armed re-runs it caused
	// (a pre-armed run trips without a re-run, as can an expired deadline).
	ArmTriggered, ArmReruns *Counter
	// StoreHits counts memory-cache misses answered from the durable
	// store; StoreWrites counts records persisted; StoreErrors counts
	// failed store reads/writes (corrupt records quarantined at read
	// time, IO failures) — each error degrades to a recompute, never an
	// outage.
	StoreHits, StoreWrites, StoreErrors *Counter
	// QueueDepth and InFlight are instantaneous occupancy gauges;
	// StoreBytes tracks the on-disk size of live store records.
	QueueDepth, InFlight, StoreBytes *Gauge
	// SimRunEvents distributes the executed-event count of each completed
	// computation (a sweep counts as one observation of its total), so the
	// workload mix — toy grids vs. large sweeps — is visible per scrape.
	SimRunEvents *Histogram
	// SimRunSeconds distributes the wall time of each individual
	// simulation run — one observation per run even inside a /v1/spec
	// sweep, where per-run timing was previously invisible behind the
	// sweep's aggregate latency. Sweep-job units land here too, since
	// each unit executes as its own run.
	SimRunSeconds *Histogram
	// QueueDepthSamples distributes the queue occupancy observed at each
	// submission, which, unlike the instantaneous QueueDepth gauge,
	// survives between scrapes and shows how close the service runs to the
	// 429 threshold.
	QueueDepthSamples *Histogram
	// EventsPerSec is the simulation throughput (events per second of
	// wall time) as an exponentially weighted moving average over roughly
	// the last minute, decaying toward zero across idle scrapes. It is a
	// health signal for the simulation hot loop: a sustained drop flags a
	// performance regression even while request latencies hide it behind
	// caching.
	EventsPerSec *obs.RateEWMA

	endpoints []string

	// extraMu guards extra, the registered auxiliary writers appended to
	// WriteText output (the jobs manager's sweep families ride along on
	// the same /metrics scrape).
	extraMu sync.Mutex
	extra   []func(io.Writer)
}

// NewMetrics returns an empty registry for the given endpoint labels.
func NewMetrics(endpoints ...string) *Metrics {
	m := &Metrics{
		Requests:          make(map[string]*Counter, len(endpoints)),
		Latency:           make(map[string]*Histogram, len(endpoints)),
		CacheHits:         &Counter{},
		CacheMisses:       &Counter{},
		DedupJoins:        &Counter{},
		QueueRejects:      &Counter{},
		DeadlineExceeded:  &Counter{},
		SimRuns:           &Counter{},
		SimEvents:         &Counter{},
		ArmTriggered:      &Counter{},
		ArmReruns:         &Counter{},
		StoreHits:         &Counter{},
		StoreWrites:       &Counter{},
		StoreErrors:       &Counter{},
		QueueDepth:        &Gauge{},
		InFlight:          &Gauge{},
		StoreBytes:        &Gauge{},
		SimRunEvents:      newHistogram(defEventBounds),
		SimRunSeconds:     newHistogram(defRunSecondsBounds),
		QueueDepthSamples: newHistogram(defDepthBounds),
		EventsPerSec:      obs.NewRateEWMA(0),
		endpoints:         append([]string(nil), endpoints...),
	}
	sort.Strings(m.endpoints)
	for _, ep := range m.endpoints {
		m.Requests[ep] = &Counter{}
		m.Latency[ep] = newHistogram(defLatencyBounds)
	}
	return m
}

// RecordThroughput feeds EventsPerSec from an executed-event count and the
// WALL time that produced it — for sweeps the sweep's wall clock, not the
// sum of per-run elapsed times. The gauge therefore reads as the process's
// aggregate simulation throughput: N sweep goroutines each executing at
// rate r report ≈ N·r, matching what capacity planning actually needs.
// (Summing per-run elapsed times would divide away sweep parallelism.)
// Zero-event or sub-resolution measurements are dropped rather than
// recorded as zero.
func (m *Metrics) RecordThroughput(events uint64, elapsed time.Duration) {
	m.EventsPerSec.Observe(events, elapsed)
}

// metricHeader emits the # HELP and # TYPE comment lines for one family.
func metricHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeCounter emits one unlabeled counter family.
func writeCounter(w io.Writer, name, help string, c *Counter) {
	metricHeader(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}

// writeGauge emits one unlabeled gauge family.
func writeGauge(w io.Writer, name, help string, v int64) {
	metricHeader(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// writeHistogram emits one histogram's series with an optional fixed label.
// Prometheus requires the cumulative bucket counts, a "+Inf" bucket equal to
// _count, and the le label last in each bucket line; label order within a
// family must not drift between scrapes, which is guaranteed here by
// constructing each line from the same format string.
func writeHistogram(w io.Writer, name, label, value string, h *Histogram) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sel := ""
	if label != "" {
		sel = fmt.Sprintf("%s=%q,", label, value)
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sel, trimFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sel, h.count)
	if label != "" {
		sel = fmt.Sprintf("{%s=%q}", label, value)
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, h.count)
}

// WriteText renders the registry in the Prometheus text exposition format:
// every family is announced with # HELP and # TYPE lines, counters carry the
// _total suffix, and histogram buckets are cumulative with a trailing +Inf.
// The output is stable across scrapes (fixed family order, fixed label
// order) so diff-based scrape tests stay meaningful.
func (m *Metrics) WriteText(w io.Writer) {
	metricHeader(w, "hexd_requests_total", "counter", "HTTP requests served, by endpoint.")
	for _, ep := range m.endpoints {
		fmt.Fprintf(w, "hexd_requests_total{endpoint=%q} %d\n", ep, m.Requests[ep].Value())
	}
	writeCounter(w, "hexd_cache_hits_total", "Result-cache lookups answered from memory.", m.CacheHits)
	writeCounter(w, "hexd_cache_misses_total", "Result-cache lookups that missed memory.", m.CacheMisses)
	writeCounter(w, "hexd_dedup_joins_total", "Requests coalesced onto an in-flight computation.", m.DedupJoins)
	writeCounter(w, "hexd_queue_rejects_total", "Submissions rejected because the job queue was full.", m.QueueRejects)
	writeCounter(w, "hexd_deadline_exceeded_total", "Requests that missed their deadline.", m.DeadlineExceeded)
	writeCounter(w, "hexd_sim_runs_total", "Simulations actually executed (post-cache, post-dedup).", m.SimRuns)
	writeCounter(w, "hexd_sim_events_total", "Simulation events executed, including cancelled runs.", m.SimEvents)
	writeCounter(w, "hexd_arm_triggered_total", "Runs whose outcome tripped the flight-recorder arm policy.", m.ArmTriggered)
	writeCounter(w, "hexd_arm_reruns_total", "Recorder-armed deterministic re-runs caused by the arm policy.", m.ArmReruns)
	writeGauge(w, "hexd_events_per_sec", "Simulation hot-loop throughput, EWMA over ~1 minute.", m.EventsPerSec.Value())
	writeCounter(w, "hexd_store_hits_total", "Cache misses answered from the durable store.", m.StoreHits)
	writeCounter(w, "hexd_store_writes_total", "Records persisted to the durable store.", m.StoreWrites)
	writeCounter(w, "hexd_store_errors_total", "Failed durable-store reads or writes.", m.StoreErrors)
	writeGauge(w, "hexd_store_bytes", "On-disk size of live store records.", m.StoreBytes.Value())
	writeGauge(w, "hexd_queue_depth", "Jobs currently queued.", m.QueueDepth.Value())
	writeGauge(w, "hexd_in_flight", "Computations currently executing.", m.InFlight.Value())
	metricHeader(w, "hexd_request_seconds", "histogram", "Request latency in seconds, by endpoint.")
	for _, ep := range m.endpoints {
		writeHistogram(w, "hexd_request_seconds", "endpoint", ep, m.Latency[ep])
	}
	metricHeader(w, "hexd_sim_run_events", "histogram", "Executed events per completed computation.")
	writeHistogram(w, "hexd_sim_run_events", "", "", m.SimRunEvents)
	metricHeader(w, "hexd_sim_run_seconds", "histogram", "Wall time of each individual simulation run, including runs inside sweeps.")
	writeHistogram(w, "hexd_sim_run_seconds", "", "", m.SimRunSeconds)
	metricHeader(w, "hexd_queue_depth_samples", "histogram", "Queue occupancy observed at each submission.")
	writeHistogram(w, "hexd_queue_depth_samples", "", "", m.QueueDepthSamples)
	m.extraMu.Lock()
	extra := make([]func(io.Writer), len(m.extra))
	copy(extra, m.extra)
	m.extraMu.Unlock()
	for _, f := range extra {
		f(w)
	}
}

// AddExtra registers an auxiliary metric writer appended after the
// service's own families on every scrape. Writers must emit well-formed
// exposition text (# HELP/# TYPE per family, stable order).
func (m *Metrics) AddExtra(f func(io.Writer)) {
	m.extraMu.Lock()
	defer m.extraMu.Unlock()
	m.extra = append(m.extra, f)
}

// trimFloat formats a bucket bound without trailing zeros.
func trimFloat(f float64) string {
	if f == math.Trunc(f) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
