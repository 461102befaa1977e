// Package metrics is hexd's one metrics registry. Counters, gauges and
// histograms are declared once, with their help text, in a Registry,
// which renders them on /metrics in the Prometheus text exposition
// format. The Registry is the only code that writes that format: each
// family's # HELP and # TYPE lines appear once, families render in
// declaration order, and every series line is built from one format
// string, so neither family nor label order drifts between scrapes.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Load is Value under the name bench/hexbench/child.go reads the sweep
// counters by; it goes once that caller reads Value.
func (c *Counter) Load() uint64 { return c.Value() }

// Gauge is an instantaneous value, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by a delta.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets, plus a running
// sum and count, with Prometheus histogram semantics. Safe for concurrent
// use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, strictly increasing
	counts []uint64  // per bucket, not cumulative; the last is +Inf
	sum    float64
	count  uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
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

// write renders the cumulative buckets, le last in each bucket's labels,
// then _sum and _count. It copies the state first, so a slow scraper
// never holds up Observe.
func (h *Histogram) write(w io.Writer, name, labels string) {
	h.mu.Lock()
	counts, sum, count := append([]uint64(nil), h.counts...), h.sum, h.count
	h.mu.Unlock()
	sel := labels
	if sel != "" {
		sel += ","
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sel, strconv.FormatFloat(b, 'f', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sel, count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braces(labels), sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, braces(labels), count)
}

// series renders one series of a family, given its rendered labels.
type series func(w io.Writer, name, labels string)

// scalar renders a counter or gauge series whose value read returns.
func scalar[T int64 | uint64](read func() T) series {
	return func(w io.Writer, name, labels string) {
		fmt.Fprintf(w, "%s%s %d\n", name, braces(labels), read())
	}
}

type family struct {
	name, typ, help string
	labels          []string // each series' name="value" pairs, "" when unlabelled
	series          []series
}

// Registry holds metric families in declaration order. A family exists
// once its first series is declared; a later series of the same name
// joins it. The zero value is ready to use, and every method is safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// Counter declares a counter series and returns it. labels are name,
// value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.declare(name, "counter", help, scalar(c.Value), labels)
	return c
}

// Gauge declares a gauge series and returns it.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.declare(name, "gauge", help, scalar(g.Value), labels)
	return g
}

// Histogram declares a histogram series over the given bucket upper
// bounds and returns it.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	r.declare(name, "histogram", help, h.write, labels)
	return h
}

// CounterFunc declares a counter series that reads its value from f at
// scrape time, for a count the code already holds.
func (r *Registry) CounterFunc(name, help string, f func() uint64, labels ...string) {
	r.declare(name, "counter", help, scalar(f), labels)
}

// GaugeFunc declares a gauge series that reads its value from f at
// scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() int64, labels ...string) {
	r.declare(name, "gauge", help, scalar(f), labels)
}

// declare adds one series. It panics on a declaration that would make the
// page invalid: empty help, a counter without the _total suffix, one name
// with two types or two helps, an odd label list or a repeated series.
func (r *Registry) declare(name, typ, help string, s series, labels []string) {
	if help == "" || typ == "counter" && !strings.HasSuffix(name, "_total") || len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: invalid %s %s (help %q, labels %q)", typ, name, help, labels))
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
	}
	sel := strings.Join(pairs, ",")

	r.mu.Lock()
	defer r.mu.Unlock()
	var f *family
	for _, g := range r.families {
		if g.name == name {
			f = g
		}
	}
	switch {
	case f == nil:
		f = &family{name: name, typ: typ, help: help}
		r.families = append(r.families, f)
	case f.typ != typ || f.help != help:
		panic(fmt.Sprintf("metrics: %s declared as %s %q and as %s %q", name, f.typ, f.help, typ, help))
	}
	for _, l := range f.labels {
		if l == sel {
			panic(fmt.Sprintf("metrics: series %s{%s} declared twice", name, sel))
		}
	}
	f.labels = append(f.labels, sel)
	f.series = append(f.series, s)
}

// WriteText renders every family in declaration order. It copies the
// family list under the registry lock and reads the series after
// releasing it, so a series read at scrape time may take its own locks.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := make([]family, len(r.families))
	for i, f := range r.families {
		fams[i] = *f
	}
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for i, write := range f.series {
			write(w, f.name, f.labels[i])
		}
	}
}

// braces wraps a non-empty label list for a series line.
func braces(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
