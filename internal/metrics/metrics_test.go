package metrics

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testRegistry declares every kind of series the registry renders and
// returns it with its labelled histogram.
func testRegistry() (*Registry, *Histogram) {
	r := &Registry{}
	for _, ep := range []string{"run", "spec"} {
		r.Counter("t_requests_total", "Requests, by endpoint.", "endpoint", ep).Add(3)
	}
	r.Counter("t_hits_total", "Hits.").Inc()
	r.Gauge("t_in_flight", "In flight.").Set(-2)
	r.GaugeFunc("t_queue_depth", "Read at scrape time.", func() int64 { return 7 })
	r.CounterFunc("t_fsyncs_total", "Read at scrape time.", func() uint64 { return 11 })
	run := r.Histogram("t_seconds", "Latency, by endpoint.", []float64{1, 0.5, 2}, "endpoint", "run")
	plain := r.Histogram("t_events", "Events.", []float64{10, 100})
	for _, v := range []float64{0.1, 0.7, 0.7, 3} {
		run.Observe(v)
	}
	plain.Observe(100)
	return r, run
}

var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)

type sample struct {
	name, labels string
	value        float64
}

// parsePage parses the text exposition format strictly: every family
// opens with one HELP line and one TYPE line, its samples follow it
// before the next family, and nothing else appears.
func parsePage(t *testing.T, text string) (types map[string]string, samples []sample) {
	t.Helper()
	types = make(map[string]string)
	helps := make(map[string]bool)
	sampled := make(map[string]bool)
	fam := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			f := strings.SplitN(line, " ", 4)
			if len(f) != 4 || f[3] == "" || helps[f[2]] {
				t.Fatalf("bad or repeated HELP line %q", line)
			}
			helps[f[2]] = true
			fam = ""
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 || !helps[f[2]] || types[f[2]] != "" {
				t.Fatalf("TYPE line %q is malformed, repeated or has no HELP before it", line)
			}
			fam, types[f[2]] = f[2], f[3]
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unparseable line %q", line)
			}
			base := m[1]
			if types[fam] == "histogram" {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					base = strings.TrimSuffix(base, suffix)
				}
			}
			if fam == "" || base != fam {
				t.Fatalf("sample %q outside its family (current %q)", line, fam)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("bad value in %q", line)
			}
			sampled[fam] = true
			samples = append(samples, sample{m[1], m[2], v})
		}
	}
	for name, typ := range types {
		if !sampled[name] {
			t.Errorf("family %s has no series", name)
		}
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %s does not end in _total", name)
		}
	}
	return types, samples
}

// TestWriteTextFormat parses a page holding every kind of series and
// checks the exposition format: one HELP and TYPE per family, families in
// declaration order, cumulative buckets with le last, +Inf equal to
// _count, values read at scrape time, and identical series on a second
// scrape.
func TestWriteTextFormat(t *testing.T) {
	r, _ := testRegistry()
	var page strings.Builder
	r.WriteText(&page)
	types, samples := parsePage(t, page.String())

	var order []string
	for _, line := range strings.Split(page.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			order = append(order, f[2]+" "+f[3])
		}
	}
	want := []string{"t_requests_total counter", "t_hits_total counter", "t_in_flight gauge",
		"t_queue_depth gauge", "t_fsyncs_total counter", "t_seconds histogram", "t_events histogram"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("families %v, want %v", order, want)
	}
	if len(types) != len(want) {
		t.Errorf("%d families typed, want %d", len(types), len(want))
	}

	values := make(map[string]float64)
	type key struct{ fam, labels string }
	last, inf, count := map[key]float64{}, map[key]float64{}, map[key]float64{}
	for _, s := range samples {
		values[s.name+"{"+s.labels+"}"] = s.value
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			i := strings.Index(s.labels, `le="`)
			if i < 0 || strings.Contains(s.labels[i:], ",") {
				t.Fatalf("%s{%s}: le is not the last label", s.name, s.labels)
			}
			k := key{s.name, strings.TrimSuffix(s.labels[:i], ",")}
			if s.value < last[k] {
				t.Errorf("%s{%s}: buckets not cumulative", s.name, s.labels)
			}
			last[k] = s.value
			if strings.HasSuffix(s.labels, `le="+Inf"`) {
				inf[k] = s.value
			}
		case strings.HasSuffix(s.name, "_count"):
			count[key{strings.TrimSuffix(s.name, "_count") + "_bucket", s.labels}] = s.value
		}
	}
	if len(count) != 2 {
		t.Errorf("%d histogram series, want 2", len(count))
	}
	for k, c := range count {
		if v, ok := inf[k]; !ok || v != c {
			t.Errorf("%s{%s}: +Inf bucket %v (present %t), _count %v", k.fam, k.labels, v, ok, c)
		}
	}
	for series, want := range map[string]float64{
		`t_requests_total{endpoint="run"}`:           3,
		`t_requests_total{endpoint="spec"}`:          3,
		`t_hits_total{}`:                             1,
		`t_in_flight{}`:                              -2,
		`t_queue_depth{}`:                            7,
		`t_fsyncs_total{}`:                           11,
		`t_seconds_bucket{endpoint="run",le="0.5"}`:  1,
		`t_seconds_bucket{endpoint="run",le="1"}`:    3,
		`t_seconds_bucket{endpoint="run",le="2"}`:    3,
		`t_seconds_bucket{endpoint="run",le="+Inf"}`: 4,
		`t_seconds_sum{endpoint="run"}`:              4.5,
		`t_seconds_count{endpoint="run"}`:            4,
		`t_events_bucket{le="10"}`:                   0,
		`t_events_bucket{le="100"}`:                  1,
		`t_events_bucket{le="+Inf"}`:                 1,
		`t_events_sum{}`:                             100,
		`t_events_count{}`:                           1,
	} {
		if got, ok := values[series]; !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", series, got, ok, want)
		}
	}

	var again strings.Builder
	r.WriteText(&again)
	_, samples2 := parsePage(t, again.String())
	if len(samples2) != len(samples) {
		t.Fatalf("second scrape has %d series, first %d", len(samples2), len(samples))
	}
	for i := range samples {
		if samples[i].name != samples2[i].name || samples[i].labels != samples2[i].labels {
			t.Fatalf("series %d drifted: %s{%s} then %s{%s}", i,
				samples[i].name, samples[i].labels, samples2[i].name, samples2[i].labels)
		}
	}
}

// TestDeclareRejectsInvalidPages pins the registration checks: each
// declaration below would put an invalid family on the page, so it
// panics instead.
func TestDeclareRejectsInvalidPages(t *testing.T) {
	for name, declare := range map[string]func(r *Registry){
		"counter without _total": func(r *Registry) { r.Counter("t_hits", "Hits.") },
		"empty help":             func(r *Registry) { r.Gauge("t_depth", "") },
		"two types":              func(r *Registry) { r.Gauge("t_hits_total", "Hits.") },
		"two helps":              func(r *Registry) { r.Counter("t_hits_total", "Other hits.", "k", "v") },
		"repeated series":        func(r *Registry) { r.Counter("t_hits_total", "Hits.") },
		"odd label list":         func(r *Registry) { r.Counter("t_more_total", "More.", "k") },
	} {
		r := &Registry{}
		r.Counter("t_hits_total", "Hits.")
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: declaration did not panic", name)
				}
			}()
			declare(r)
		}()
	}

	// A family exists only once it has a series: an empty registry
	// renders nothing.
	var page strings.Builder
	(&Registry{}).WriteText(&page)
	if page.Len() != 0 {
		t.Errorf("empty registry wrote %q", page.String())
	}
}

// TestConcurrentScrape declares, updates and scrapes at once; under -race
// it checks that WriteText reads series outside the registry lock safely.
func TestConcurrentScrape(t *testing.T) {
	r, run := testRegistry()
	pages := make([]strings.Builder, 50)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			run.Observe(float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Counter("t_peer_total", "Per peer.", "peer", strconv.Itoa(i)).Inc()
		}
	}()
	go func() {
		defer wg.Done()
		for i := range pages {
			r.WriteText(&pages[i])
		}
	}()
	wg.Wait()
	for i := range pages {
		parsePage(t, pages[i].String())
	}
	if got := run.Count(); got != 204 {
		t.Errorf("Count = %d, want 204", got)
	}
}
