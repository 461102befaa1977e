package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names a metric, its unit and which direction is better. The
// lists below and BENCHMARK.json name the same metrics (a test checks it).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of hexd sees, measured untraced; see
// endToEndSummaries for how reps reduce to one value.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"events_per_s", "event/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, from the traced run. The
// layer each belongs to is the part of its name before the dot; README.md
// maps each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"service.decode_us", "us", "lower"},
	{"service.key_us", "us", "lower"},
	{"coalesce.lookup_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"grid.build_us", "us", "lower"},
	{"fault.place_us", "us", "lower"},
	{"source.offsets_us", "us", "lower"},
	{"core.run_ms", "ms", "lower"},
	{"core.ns_per_event", "ns", "lower"},
	{"core.events_per_run", "count", "lower"},
	{"analysis.wave_us", "us", "lower"},
	{"stats.summarize_us", "us", "lower"},
	{"service.encode_us", "us", "lower"},
	{"store.write_ms", "ms", "lower"},
	{"store.fsyncs_per_write", "count", "lower"},
	{"store.bytes_per_entry", "bytes", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.sim_span_ms", "ms", "lower"},
	{"service.op_self_ms", "ms", "lower"},
	{"service.queue_rejects", "count", "lower"},
	{"coalesce.lru_hit_ratio", "ratio", "higher"},
	{"coalesce.join_ratio", "ratio", "higher"},
	{"store.hit_ratio", "ratio", "higher"},
	{"store.errors", "count", "lower"},
	{"store.quarantined", "count", "lower"},
	{"grid.cache_hit_ratio", "ratio", "higher"},
	{"jobs.unit_retries", "count", "lower"},
	{"jobs.units_failed", "count", "lower"},
	{"process.cpu_ms_per_op", "ms", "lower"},
	{"process.cpu_util", "ratio", "higher"},
	{"process.alloc_bytes_per_op", "bytes", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// exactCounts are the count metrics that must repeat exactly between runs
// of one commit at one plan; -compare flags any change in them.
var exactCounts = []string{"fsyncs_per_op", "store_bytes_per_op", "core.events_per_run"}

// simAgreementBound is how far core.run_ms (the replay, single-threaded)
// may stray from service.sim_span_ms (the served runs, under load) before
// the run warns that the replay no longer stands in for the service. The
// two are timed seconds apart, and on a shared 2-core host the machine's
// speed moves by a fifth in that time; sweep batches also run two at a
// time on the two cores while the replay runs alone.
const simAgreementBound = 0.5

// layerMetrics computes a traced rep's per-layer metrics from its spans,
// the replay's counts and the service's counters over the timed phase.
// The process.* metrics and trace.overhead_ratio come from the untraced
// reps and are added by the parent.
func layerMetrics(spans []span, rp *replayer, before, after counters) map[string]float64 {
	t := totalsByName(spans)
	us, ms := time.Microsecond, time.Millisecond
	d := func(get func(counters) uint64) float64 { return float64(get(after) - get(before)) }
	misses := d(func(c counters) uint64 { return c.misses })
	joins := d(func(c counters) uint64 { return c.joins })
	hits := d(func(c counters) uint64 { return c.hits })
	gridHits := d(func(c counters) uint64 { return c.gridHits })
	gridMisses := d(func(c counters) uint64 { return c.gridMisses })
	return map[string]float64{
		"service.decode_us":      t["service.decode"].mean(us),
		"service.key_us":         t["service.key"].mean(us),
		"coalesce.lookup_us":     t["coalesce.do"].mean(us),
		"store.get_us":           t["store.get"].mean(us),
		"grid.build_us":          t["grid.build"].mean(us),
		"fault.place_us":         t["fault.place"].mean(us),
		"source.offsets_us":      t["source.offsets"].mean(us),
		"core.run_ms":            t["core.run"].mean(ms),
		"core.ns_per_event":      ratio(float64(t["core.run"].self), float64(rp.events)),
		"core.events_per_run":    ratio(float64(rp.events), float64(rp.runs)),
		"analysis.wave_us":       t["analysis.wave"].mean(us),
		"stats.summarize_us":     t["stats.summarize"].mean(us),
		"service.encode_us":      t["service.encode"].mean(us),
		"store.write_ms":         t["store.write"].mean(ms),
		"store.fsyncs_per_write": ratio(float64(rp.fsyncs), float64(rp.writes)),
		"store.bytes_per_entry":  ratio(float64(rp.bytes), float64(rp.entries)),
		"service.queue_wait_ms":  t["service.queue-wait"].mean(ms),
		"service.sim_span_ms":    t["service.sim"].mean(ms),
		"service.op_self_ms":     t["op"].mean(ms),
		"service.queue_rejects":  d(func(c counters) uint64 { return c.rejects }),
		"coalesce.lru_hit_ratio": ratio(hits, hits+misses),
		"coalesce.join_ratio":    ratio(joins, misses),
		"store.hit_ratio":        ratio(d(func(c counters) uint64 { return c.storeHits }), misses-joins),
		"store.errors":           d(func(c counters) uint64 { return c.storeErrors }),
		"store.quarantined":      d(func(c counters) uint64 { return c.quarant }),
		"grid.cache_hit_ratio":   ratio(gridHits, gridHits+gridMisses),
		"jobs.unit_retries":      d(func(c counters) uint64 { return c.retries }),
		"jobs.units_failed":      d(func(c counters) uint64 { return c.unitsFailed }),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summary is one metric of one workload over a run's reps.
type summary struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	PerRep []float64 `json:"per_rep"`
	// Samples and Percentile describe a latency percentile pooled over
	// reps.
	Samples    int `json:"samples,omitempty"`
	Percentile int `json:"percentile,omitempty"`
}

// spread is the interquartile range of the per-rep values as a share of
// the value.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Value) }

func newSummary(unit string, perRep []float64) summary {
	q1, med, q3 := quartiles(perRep)
	return summary{Value: med, Unit: unit, Q1: q1, Q3: q3, PerRep: perRep}
}

// windowsPerRep is how many windows a rep's ops are cut into, in
// completion order. Shared hosts slow a process down in bursts of a second
// or less; the median over windows ignores such bursts as long as they hit
// fewer than half the windows.
const windowsPerRep = 40

// windowRates cuts completion times (ms since the timed phase began) into
// about w windows of equal op count and returns each window's completion
// rate in op/s. Ops completing at the same instant (a sweep batch) stay in
// one window.
func windowRates(done []float64, w int) []float64 {
	done = append([]float64(nil), done...)
	sort.Float64s(done)
	target := max(1, len(done)/w)
	var out []float64
	var from float64
	n := 0
	for i, t := range done {
		n++
		if n < target || (i+1 < len(done) && done[i+1] == t) {
			continue
		}
		if t > from {
			out = append(out, float64(n)/(t-from)*1000)
		}
		from, n = t, 0
	}
	return out
}

// windowMedians cuts xs into about w consecutive windows of equal length
// and returns each window's median.
func windowMedians(xs []float64, w int) []float64 {
	size := max(1, len(xs)/w)
	var out []float64
	for lo := 0; lo+size <= len(xs); lo += size {
		out = append(out, median(xs[lo:lo+size]))
	}
	return out
}

// endToEndSummaries reduces a workload's untraced reps to its end-to-end
// metrics. The rate and the typical latency are medians over every rep's
// windows; the tail latency is a percentile over every op of every rep.
func endToEndSummaries(rs []*repResult) map[string]summary {
	perRep := func(f func(*repResult) float64) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	pooled := func(f func(*repResult) []float64) []float64 {
		var out []float64
		for _, r := range rs {
			out = append(out, f(r)...)
		}
		return out
	}
	// overWindows summarizes per-window values: the value is the median
	// over all reps' windows, the quartiles are those of the per-rep
	// medians.
	overWindows := func(unit string, f func(*repResult) []float64) summary {
		s := newSummary(unit, perRep(func(r *repResult) float64 { return median(f(r)) }))
		s.Value = median(pooled(f))
		return s
	}
	var events, ops float64
	for _, r := range rs {
		events += float64(r.Events)
		ops += float64(r.Attempted - r.Failed)
	}
	perOp := ratio(events, ops)
	rates := func(r *repResult) []float64 { return r.Rates }
	eventRates := func(r *repResult) []float64 {
		out := make([]float64, len(r.Rates))
		for i, x := range r.Rates {
			out[i] = x * perOp
		}
		return out
	}
	latency := func(r *repResult) []float64 { return windowMedians(r.LatencyMs, windowsPerRep) }
	all := pooled(func(r *repResult) []float64 { return r.LatencyMs })
	sort.Float64s(all)
	tailPct := tailPercentile(len(all))
	tail := newSummary("ms", perRep(func(r *repResult) float64 {
		xs := append([]float64(nil), r.LatencyMs...)
		sort.Float64s(xs)
		return percentile(xs, tailPct)
	}))
	tail.Value, tail.Samples, tail.Percentile = percentile(all, tailPct), len(all), tailPct
	p50 := overWindows("ms", latency)
	p50.Samples, p50.Percentile = len(all), 50
	return map[string]summary{
		"setup_s":         newSummary("s", perRep(func(r *repResult) float64 { return r.SetupS })),
		"ops_per_s":       overWindows("op/s", rates),
		"events_per_s":    overWindows("event/s", eventRates),
		"latency_p50_ms":  p50,
		"latency_tail_ms": tail,
		"peak_rss_mb":     newSummary("MB", perRep(func(r *repResult) float64 { return r.PeakRSSMB })),
	}
}

// tailPercentiles are the candidates for a workload's tail latency,
// highest first.
var tailPercentiles = []int{99, 95, 90, 75, 50}

// tailPercentile is the highest candidate percentile that has at least ten
// of n samples beyond it. Op counts are fixed per plan, so a workload
// always reports the same percentile at the same run length.
func tailPercentile(n int) int {
	for _, p := range tailPercentiles {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (p*len(sorted)+99)/100 - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// quartiles returns the first quartile, median and third quartile of xs,
// the quartiles computed as Python's statistics.quantiles(xs, n=4) does.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// median of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// processMetrics are the process.* per-layer metrics of a workload's
// untraced reps, medians over reps.
func processMetrics(rs []*repResult, nproc int) map[string]float64 {
	per := func(f func(*repResult) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	return map[string]float64{
		"process.cpu_ms_per_op":      per(func(r *repResult) float64 { return ratio(r.CPUS*1000, float64(r.Attempted)) }),
		"process.cpu_util":           per(func(r *repResult) float64 { return ratio(r.CPUS, r.WallS*float64(nproc)) }),
		"process.alloc_bytes_per_op": per(func(r *repResult) float64 { return ratio(float64(r.AllocBytes), float64(r.Attempted)) }),
		"process.gc_cycles":          per(func(r *repResult) float64 { return float64(r.GCCycles) }),
		"process.gc_pause_ms":        per(func(r *repResult) float64 { return r.GCPauseMs }),
	}
}

// sameFloat reports whether two exact counts agree; the tolerance absorbs
// only float formatting of ratios like bytes/op.
func sameFloat(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }
