package jobs

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Metrics are the sweep-job counters, exported on the service's /metrics
// endpoint through service.Metrics.AddExtra — one exposition writer, so
// operators get the job families next to the serving families without a
// second scrape target.
type Metrics struct {
	// JobsSubmitted counts accepted sweeps (including resumed ones);
	// JobsResumed the subset re-materialized by Recover after a restart;
	// JobsCompleted sweeps whose every unit reached a terminal state.
	JobsSubmitted Counter
	JobsResumed   Counter
	JobsCompleted Counter
	// JobsCancelled counts jobs terminated by DELETE /v1/sweeps/{id}.
	JobsCancelled Counter
	// UnitsPlanned counts decomposed units across all accepted jobs;
	// UnitsDone/UnitsFailed their terminal outcomes; UnitsCancelled units
	// terminated by job cancellation (queued or in-flight);
	// UnitsInterrupted in-flight units cut off by a drain (Close), which
	// the next boot re-runs; UnitRetries queue-full rejections absorbed by
	// the unit retry loop.
	UnitsPlanned     Counter
	UnitsDone        Counter
	UnitsFailed      Counter
	UnitsCancelled   Counter
	UnitsInterrupted Counter
	UnitRetries      Counter
	// UnitsInFlight gauges units currently dispatched into the Runner.
	UnitsInFlight Gauge
}

// NewMetrics returns a zeroed Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one; Add adds n; Load reads the current value.
func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n uint64) { c.v.Add(n) }
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic up/down gauge.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease); Load reads it.
func (g *Gauge) Add(n int64) { g.v.Add(n) }
func (g *Gauge) Load() int64 { return g.v.Load() }

// WriteText emits the job metric families in Prometheus exposition
// format. Its signature matches service.Metrics.AddExtra.
func (m *Metrics) WriteText(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("hexd_sweep_jobs_submitted_total", "Sweep jobs accepted (including resumed).", m.JobsSubmitted.Load())
	counter("hexd_sweep_jobs_resumed_total", "Sweep jobs re-materialized from the durable store on boot.", m.JobsResumed.Load())
	counter("hexd_sweep_jobs_completed_total", "Sweep jobs whose every unit reached a terminal state.", m.JobsCompleted.Load())
	counter("hexd_sweep_jobs_cancelled_total", "Sweep jobs terminated by DELETE /v1/sweeps/{id}.", m.JobsCancelled.Load())
	counter("hexd_sweep_units_planned_total", "Work units decomposed across all accepted sweep jobs.", m.UnitsPlanned.Load())
	counter("hexd_sweep_units_done_total", "Sweep units completed successfully.", m.UnitsDone.Load())
	counter("hexd_sweep_units_failed_total", "Sweep units that reached a terminal failure.", m.UnitsFailed.Load())
	counter("hexd_sweep_units_cancelled_total", "Sweep units terminated by job cancellation (queued or in-flight).", m.UnitsCancelled.Load())
	counter("hexd_sweep_units_interrupted_total", "In-flight sweep units cut off by a drain; the next boot re-runs them.", m.UnitsInterrupted.Load())
	counter("hexd_sweep_unit_retries_total", "Queue-full rejections absorbed by the sweep unit retry loop.", m.UnitRetries.Load())
	fmt.Fprintf(w, "# HELP hexd_sweep_units_inflight Sweep units currently dispatched into the runner.\n"+
		"# TYPE hexd_sweep_units_inflight gauge\nhexd_sweep_units_inflight %d\n", m.UnitsInFlight.Load())
}
