package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/store"
)

// TestMain lets the test binary serve as the child process the smoke test
// spawns, exactly as the hexbench binary does.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(childEnv); cfg != "" {
		os.Exit(childMain(cfg, os.Stdout))
	}
	os.Exit(m.Run())
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{25000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {1, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) on these inputs.
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50) together.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild is subtracted from its parent, not from the op.
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
		// A child covering its parent entirely leaves no self time.
		{ID: 6, Parent: 5, Name: "e", Start: 20 * ms, End: 40 * ms},
	}
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 0, 20 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tot := totalsByName(append(spans, span{ID: 7, Name: "a", Start: 0, End: 40 * ms}))
	if got := tot["a"].mean(ms); got != 30 {
		t.Errorf("mean self of a = %v ms, want 30", got)
	}
}

func TestRecorderParentsSpans(t *testing.T) {
	rec := newRecorder()
	op := rec.begin("op", 0)
	child := rec.begin("child", op)
	rec.end(child)
	rec.end(op)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	var nilRec *recorder
	if id := nilRec.begin("x", 0); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	nilRec.end(0)
}

func TestScheduleInterleavesRepsAcrossWorkloads(t *testing.T) {
	plans := []plan{{Workload: "a"}, {Workload: "b"}, {Workload: "c"}}
	var got []string
	for _, s := range schedule(plans, 2, true) {
		got = append(got, s.plan.Workload+map[bool]string{true: "*"}[s.traced])
	}
	want := []string{"a", "b", "c", "a", "b", "c", "a*", "b*", "c*"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule = %v, want %v", got, want)
	}
}

func TestMaskElapsedIgnoresOnlyWallTime(t *testing.T) {
	a := &store.Aggregate{Triggered: 252, Events: 1450, Horizon: 77, ElapsedNs: 123456,
		IntraSkew: stats.Summary{N: 10, Max: 3}, InterSkew: stats.Summary{N: 20, Avg: 1}}
	b := *a
	b.ElapsedNs = 987654
	ea, eb := store.EncodeAggregate(a), store.EncodeAggregate(&b)
	if bytes.Equal(ea, eb) {
		t.Fatal("aggregates with different wall times encode alike; the test is vacuous")
	}
	if !sameBody(ea, eb) {
		t.Error("aggregates differing only in ElapsedNs compare unequal")
	}
	c := *a
	c.Events++
	if sameBody(ea, store.EncodeAggregate(&c)) {
		t.Error("aggregates with different event counts compare equal")
	}
	m, err := store.DecodeAggregate(maskElapsed(ea))
	if err != nil || m.ElapsedNs != 0 || m.Events != a.Events {
		t.Errorf("masked aggregate = %+v, %v", m, err)
	}
	js := []byte(`{"l":20}` + "\n")
	if !bytes.Equal(maskElapsed(js), js) {
		t.Error("maskElapsed changed a JSON body")
	}
}

func TestGenerateIsAFunctionOfThePlan(t *testing.T) {
	for _, w := range workloads {
		p := newPlan(w, 7, 1)
		a, err := generate(p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := generate(p)
		if len(a.reqs) != len(b.reqs) || !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.setup, b.setup) {
			t.Fatalf("%s: two generations of one plan differ", w.name)
		}
		keys := make(map[string]bool)
		for i := range a.reqs {
			if !bytes.Equal(a.reqs[i].body, b.reqs[i].body) || a.reqs[i].key != b.reqs[i].key {
				t.Fatalf("%s: request %d differs between generations", w.name, i)
			}
			if keys[a.reqs[i].key] {
				t.Fatalf("%s: request %d repeats key %s", w.name, i, a.reqs[i].key)
			}
			keys[a.reqs[i].key] = true
		}
		if len(a.ops) != p.Ops {
			t.Errorf("%s: %d timed ops, plan says %d", w.name, len(a.ops), p.Ops)
		}
		c, _ := generate(newPlan(w, 8, 1))
		if c.reqs[0].key == a.reqs[0].key {
			t.Errorf("%s: seeds 7 and 8 generate the same first request", w.name)
		}
	}
}

func TestVerdict(t *testing.T) {
	s := func(v, q1, q3 float64) summary { return summary{Value: v, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		a, b   summary
		better string
		want   string
	}{
		{s(100, 99, 101), s(104, 103, 105), "higher", "same"},
		{s(100, 99, 101), s(80, 79, 81), "higher", "worse"},
		{s(100, 99, 101), s(120, 119, 121), "higher", "better"},
		{s(100, 99, 101), s(120, 119, 121), "lower", "worse"},
		{s(100, 99, 101), s(80, 79, 81), "lower", "better"},
		{s(100, 80, 120), s(60, 59, 61), "higher", "unresolved"},
	} {
		if got := verdict(c.a, c.b, 0.1, c.better); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.better, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkDefinition keeps the metric tables in step with
// BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkDefinition(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v,\nwant %+v", def.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(def.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v,\nwant %+v", def.PerLayer, perLayer)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, want %v", names, want)
	}
}
