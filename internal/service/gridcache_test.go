package service

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/grid"
)

// TestGridCacheSharingDifferential pins the tentpole guarantee of grid
// memoization: N concurrent mixed-spec requests that all resolve to one
// cached graph produce results byte-identical to a fresh-build baseline
// where every request constructs its own grid. Run under -race it also
// proves the shared graph is read concurrently without data races.
func TestGridCacheSharingDifferential(t *testing.T) {
	// Mixed specs on one grid shape: seeds, scenarios, and fault counts
	// vary; (L, W, topology) is shared so every request hits one graph.
	const l, w = 12, 8
	var reqs []RunRequest
	for seed := uint64(1); seed <= 8; seed++ {
		for _, sc := range []string{"zero", "udminus"} {
			for _, faults := range []int{0, 1} {
				reqs = append(reqs, RunRequest{
					L: l, W: w, Seed: seed, Scenario: sc, Faults: faults,
				})
			}
		}
	}

	// Baseline: compute every request with per-request fresh construction
	// (the pre-cache behavior) on a service of its own.
	orig := buildGrid
	buildGrid = func(l, w int, plus bool) (*grid.Hex, error) {
		if plus {
			return grid.NewHexPlus(l, w)
		}
		return grid.NewHex(l, w)
	}
	base := newTestService(t, Options{Workers: 2, CacheEntries: 1})
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		r := r
		if err := r.Normalize(base.Options()); err != nil {
			t.Fatal(err)
		}
		v, err := runOne(base, r)
		if err != nil {
			t.Fatalf("baseline request %d: %v", i, err)
		}
		want[i] = v.Body
	}
	buildGrid = orig

	// Cached path: the same requests, concurrently, on a service whose
	// buildGrid resolves through grid.Shared. CacheEntries=1 keeps the
	// result LRU from serving one request's body to another; every
	// request recomputes on the shared graph.
	// QueueDepth covers all requests submitted at once: the point here is
	// grid sharing, not backpressure (queue-full is tested elsewhere).
	s := newTestService(t, Options{Workers: 4, CacheEntries: 1, QueueDepth: len(reqs)})
	var wg sync.WaitGroup
	got := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r RunRequest) {
			defer wg.Done()
			if err := r.Normalize(s.Options()); err != nil {
				errs[i] = err
				return
			}
			v, err := runOne(s, r)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = v.Body
		}(i, r)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("cached request %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("request %d (%+v): cached-grid body differs from fresh-build baseline\ncached: %s\nfresh:  %s",
				i, reqs[i], got[i], want[i])
		}
	}

	// The shared cache really was shared: the shape is resident once.
	if h, err := grid.Shared.Hex(l, w); err != nil || h == nil {
		t.Fatalf("shape missing from shared cache: %v", err)
	}
}

// TestGridCacheKeysDistinctShapes guards against key collisions between
// plain and augmented topologies of equal dimensions at the service layer
// (a collision would silently run HEX requests on HEX+ graphs).
func TestGridCacheKeysDistinctShapes(t *testing.T) {
	a, err := buildGrid(9, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildGrid(9, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("HEX and HEX+ of equal dims share one cached graph")
	}
	if fmt.Sprintf("%d", len(a.In(a.NodeID(1, 0)))) == fmt.Sprintf("%d", len(b.In(b.NodeID(1, 0)))) {
		t.Fatal("HEX and HEX+ in-degree unexpectedly equal; cache returned the wrong topology")
	}
}
