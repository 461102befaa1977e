package service

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
)

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

// defCommitBounds covers entries per store commit in powers of two, from
// a lone write-behind result past a full write queue or 256-unit batch.
var defCommitBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Metrics is the service's metrics: typed fields for the code that
// counts, declared in the embedded registry that GET /metrics renders.
// The store's counters and the queue depth are read at scrape time.
type Metrics struct {
	*metrics.Registry
	// Requests counts HTTP requests per endpoint.
	Requests map[string]*metrics.Counter
	// Latency tracks per-endpoint request latency in seconds.
	Latency map[string]*metrics.Histogram
	// CacheHits / CacheMisses count result-cache lookups.
	CacheHits, CacheMisses *metrics.Counter
	// DedupJoins counts requests coalesced onto an in-flight computation.
	DedupJoins *metrics.Counter
	// QueueRejects counts submissions rejected because the queue was full.
	QueueRejects *metrics.Counter
	// DeadlineExceeded counts requests that missed their deadline.
	DeadlineExceeded *metrics.Counter
	// SimRuns counts simulations actually executed (post-cache, post-dedup).
	SimRuns *metrics.Counter
	// SimEvents accumulates Result.Events (executed or retired) over all
	// runs, including the partial counts of cancelled runs, which also
	// hold events retired ahead of the stop point (DESIGN §11).
	SimEvents *metrics.Counter
	// ArmTriggered counts runs whose outcome tripped the arm policy;
	// ArmReruns counts the deterministic recorder-armed re-runs it caused
	// (a pre-armed run trips without a re-run, as can an expired deadline).
	ArmTriggered, ArmReruns *metrics.Counter
	// StoreHits counts memory-cache misses answered from the durable
	// store; StoreWrites counts records persisted; StoreErrors counts
	// failed store reads/writes (corrupt records quarantined at read
	// time, IO failures) — each error degrades to a recompute, never an
	// outage.
	StoreHits, StoreWrites, StoreErrors *metrics.Counter
	// InFlight counts computations currently executing.
	InFlight *metrics.Gauge
	// SimRunEvents distributes the event count (executed or retired,
	// DESIGN §11) of each completed computation (a sweep counts as one
	// observation of its total), so the workload mix — toy grids vs.
	// large sweeps — is visible per scrape.
	SimRunEvents *metrics.Histogram
	// SimRunSeconds distributes the wall time of each individual
	// simulation run — one observation per run even inside a /v1/spec
	// sweep, where per-run timing was previously invisible behind the
	// sweep's aggregate latency. Sweep-job units land here too, since
	// each unit executes as its own run.
	SimRunSeconds *metrics.Histogram
	// QueueDepthSamples distributes the queue occupancy observed at each
	// submission, which, unlike the instantaneous hexd_queue_depth,
	// survives between scrapes and shows how close the service runs to the
	// 429 threshold.
	QueueDepthSamples *metrics.Histogram
	// StoreCommitEntries distributes the entries per durable-store
	// commit: the write-behind writer's groups and RunUnits' batches.
	StoreCommitEntries *metrics.Histogram
	// EventsPerSec is the simulation throughput (events per second of
	// wall time) as an exponentially weighted moving average over roughly
	// the last minute, decaying toward zero across idle scrapes. It is a
	// health signal for the simulation hot loop: a sustained drop flags a
	// performance regression even while request latencies hide it behind
	// caching. Each observation is an event count and the WALL time that
	// produced it — for a sweep the sweep's wall clock, not the sum of
	// its runs' elapsed times — so N sweep goroutines each executing at
	// rate r report ≈ N·r, the process's aggregate throughput.
	EventsPerSec *obs.RateEWMA
}

// newMetrics declares the service's families in page order. st, when
// non-nil, and queued are read at scrape time.
func newMetrics(st *store.Store, queued func() int64) *Metrics {
	r := &metrics.Registry{}
	m := &Metrics{
		Registry:     r,
		Requests:     make(map[string]*metrics.Counter),
		Latency:      make(map[string]*metrics.Histogram),
		EventsPerSec: obs.NewRateEWMA(0),
	}
	endpoints := []string{"run", "spec"}
	for _, ep := range endpoints {
		m.Requests[ep] = r.Counter("hexd_requests_total", "HTTP requests served, by endpoint.", "endpoint", ep)
	}
	m.CacheHits = r.Counter("hexd_cache_hits_total", "Result-cache lookups answered from memory.")
	m.CacheMisses = r.Counter("hexd_cache_misses_total", "Result-cache lookups that missed memory.")
	m.DedupJoins = r.Counter("hexd_dedup_joins_total", "Requests coalesced onto an in-flight computation.")
	m.QueueRejects = r.Counter("hexd_queue_rejects_total", "Submissions rejected because the job queue was full.")
	m.DeadlineExceeded = r.Counter("hexd_deadline_exceeded_total", "Requests that missed their deadline.")
	m.SimRuns = r.Counter("hexd_sim_runs_total", "Simulations actually executed (post-cache, post-dedup).")
	m.SimEvents = r.Counter("hexd_sim_events_total", "Simulation events executed or retired unexecuted, including cancelled runs.")
	m.ArmTriggered = r.Counter("hexd_arm_triggered_total", "Runs whose outcome tripped the flight-recorder arm policy.")
	m.ArmReruns = r.Counter("hexd_arm_reruns_total", "Recorder-armed deterministic re-runs caused by the arm policy.")
	r.GaugeFunc("hexd_events_per_sec", "Simulation hot-loop throughput, EWMA over ~1 minute.", m.EventsPerSec.Value)
	m.StoreHits = r.Counter("hexd_store_hits_total", "Cache misses answered from the durable store.")
	m.StoreWrites = r.Counter("hexd_store_writes_total", "Records persisted to the durable store.")
	m.StoreErrors = r.Counter("hexd_store_errors_total", "Failed durable-store reads or writes.")
	fsyncs, quarantined, bytes := func() uint64 { return 0 }, func() uint64 { return 0 }, func() int64 { return 0 }
	if st != nil {
		fsyncs, quarantined, bytes = st.Fsyncs, st.Quarantined, st.Bytes
	}
	r.CounterFunc("hexd_store_fsyncs_total", "Fsync syscalls issued by the durable store since it was opened.", fsyncs)
	r.CounterFunc("hexd_store_quarantined_total", "Corrupt store files and segment tails moved to quarantine since the store was opened.", quarantined)
	r.GaugeFunc("hexd_store_bytes", "On-disk size of live store records.", bytes)
	r.GaugeFunc("hexd_queue_depth", "Jobs currently queued.", queued)
	m.InFlight = r.Gauge("hexd_in_flight", "Computations currently executing.")
	for _, ep := range endpoints {
		m.Latency[ep] = r.Histogram("hexd_request_seconds", "Request latency in seconds, by endpoint.", defLatencyBounds, "endpoint", ep)
	}
	m.SimRunEvents = r.Histogram("hexd_sim_run_events", "Events executed or retired unexecuted per completed computation.", defEventBounds)
	m.SimRunSeconds = r.Histogram("hexd_sim_run_seconds", "Wall time of each individual simulation run, including runs inside sweeps.", defRunSecondsBounds)
	m.QueueDepthSamples = r.Histogram("hexd_queue_depth_samples", "Queue occupancy observed at each submission.", defDepthBounds)
	m.StoreCommitEntries = r.Histogram("hexd_store_commit_entries", "Entries per durable-store commit, from the write-behind writer and batch group commits.", defCommitBounds)
	return m
}
