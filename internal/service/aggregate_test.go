package service

import (
	"encoding/json"
	"testing"

	"repro/internal/store"
)

// TestAggregateOutputMatchesStats is the differential test for the
// aggregate-only execution mode at the service layer: for the same
// request spec, the HXA1 record's skew summaries, trigger count, event
// count, and horizon must equal the stats-output response's — the compact
// FirstTriggerOnly simulation path changes the representation, never the
// numbers.
func TestAggregateOutputMatchesStats(t *testing.T) {
	s := newTestService(t, Options{Workers: 2, CacheEntries: 4})
	for _, spec := range []RunRequest{
		{L: 10, W: 6, Seed: 3},
		{L: 10, W: 6, Seed: 4, Scenario: "udminus", Faults: 2},
		{L: 8, W: 6, Seed: 5, HexPlus: true, Faults: 1, FaultType: "fail-silent"},
	} {
		stat := spec
		stat.Output = "stats"
		if err := stat.Normalize(s.Options()); err != nil {
			t.Fatal(err)
		}
		sv, err := runOne(s, stat)
		if err != nil {
			t.Fatalf("stats run %+v: %v", spec, err)
		}
		var resp RunResponse
		if err := json.Unmarshal(sv.Body, &resp); err != nil {
			t.Fatal(err)
		}

		ag := spec
		ag.Output = "agg"
		if err := ag.Normalize(s.Options()); err != nil {
			t.Fatal(err)
		}
		av, err := runOne(s, ag)
		if err != nil {
			t.Fatalf("agg run %+v: %v", spec, err)
		}
		if av.ContentType != aggregateContentType {
			t.Fatalf("agg content type %q", av.ContentType)
		}
		agg, err := store.DecodeAggregate(av.Body)
		if err != nil {
			t.Fatalf("agg body does not decode: %v", err)
		}

		if int(agg.Triggered) != resp.Triggered {
			t.Fatalf("%+v: triggered %d, stats %d", spec, agg.Triggered, resp.Triggered)
		}
		if agg.Events != resp.Events {
			t.Fatalf("%+v: events %d, stats %d", spec, agg.Events, resp.Events)
		}
		if agg.Horizon.Nanoseconds() != resp.HorizonNs {
			t.Fatalf("%+v: horizon %v, stats %v", spec, agg.Horizon.Nanoseconds(), resp.HorizonNs)
		}
		for _, c := range []struct {
			name string
			got  SummaryJSON
			want SummaryJSON
		}{
			{"intra", summaryJSON(agg.IntraSkew), resp.IntraSkewNs},
			{"inter", summaryJSON(agg.InterSkew), resp.InterSkewNs},
		} {
			if c.got != c.want {
				t.Fatalf("%+v: %s skew summary %+v, stats %+v", spec, c.name, c.got, c.want)
			}
		}
		if agg.ElapsedNs == 0 {
			t.Fatalf("%+v: zero elapsed time", spec)
		}
	}
}

// TestAggregateOutputKeyDistinct guards the cache-key partition: "agg"
// bodies are binary and must never be served for a "stats" request.
func TestAggregateOutputKeyDistinct(t *testing.T) {
	a := RunRequest{L: 10, W: 6, Seed: 3, Output: "agg"}
	b := RunRequest{L: 10, W: 6, Seed: 3, Output: "stats"}
	opts := newTestService(t, Options{Workers: 1}).Options()
	if err := a.Normalize(opts); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(opts); err != nil {
		t.Fatal(err)
	}
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Fatal("agg and stats outputs share a cache key")
	}
}
