package jobs

import "repro/internal/metrics"

// Metrics are the sweep-job counters, declared in the registry
// Options.Metrics names: wire the service's or the router's there and the
// job families render on its /metrics, next to the serving families.
type Metrics struct {
	// JobsSubmitted counts accepted sweeps (including resumed ones);
	// JobsResumed the subset re-materialized by Recover after a restart;
	// JobsCompleted sweeps whose every unit reached a terminal state.
	JobsSubmitted, JobsResumed, JobsCompleted *metrics.Counter
	// JobsCancelled counts jobs terminated by DELETE /v1/sweeps/{id}.
	JobsCancelled *metrics.Counter
	// UnitsPlanned counts decomposed units across all accepted jobs;
	// UnitsDone/UnitsFailed their terminal outcomes; UnitsCancelled units
	// terminated by job cancellation (queued or in-flight);
	// UnitsInterrupted in-flight units cut off by a drain (Close), which
	// the next boot re-runs; UnitRetries queue-full rejections absorbed by
	// the unit retry loop.
	UnitsPlanned, UnitsDone, UnitsFailed, UnitsCancelled *metrics.Counter
	UnitsInterrupted, UnitRetries                        *metrics.Counter
	// UnitsInFlight gauges units currently dispatched into the Runner.
	UnitsInFlight *metrics.Gauge
}

// newMetrics declares the job families in r.
func newMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		JobsSubmitted:    r.Counter("hexd_sweep_jobs_submitted_total", "Sweep jobs accepted (including resumed)."),
		JobsResumed:      r.Counter("hexd_sweep_jobs_resumed_total", "Sweep jobs re-materialized from the durable store on boot."),
		JobsCompleted:    r.Counter("hexd_sweep_jobs_completed_total", "Sweep jobs whose every unit reached a terminal state."),
		JobsCancelled:    r.Counter("hexd_sweep_jobs_cancelled_total", "Sweep jobs terminated by DELETE /v1/sweeps/{id}."),
		UnitsPlanned:     r.Counter("hexd_sweep_units_planned_total", "Work units decomposed across all accepted sweep jobs."),
		UnitsDone:        r.Counter("hexd_sweep_units_done_total", "Sweep units completed successfully."),
		UnitsFailed:      r.Counter("hexd_sweep_units_failed_total", "Sweep units that reached a terminal failure."),
		UnitsCancelled:   r.Counter("hexd_sweep_units_cancelled_total", "Sweep units terminated by job cancellation (queued or in-flight)."),
		UnitsInterrupted: r.Counter("hexd_sweep_units_interrupted_total", "In-flight sweep units cut off by a drain; the next boot re-runs them."),
		UnitRetries:      r.Counter("hexd_sweep_unit_retries_total", "Queue-full rejections absorbed by the sweep unit retry loop."),
		UnitsInFlight:    r.Gauge("hexd_sweep_units_inflight", "Sweep units currently dispatched into the runner."),
	}
}
