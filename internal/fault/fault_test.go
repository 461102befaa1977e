package fault

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

func TestPlanDefaults(t *testing.T) {
	p := NewPlan(10)
	for n := 0; n < 10; n++ {
		if p.Behavior(n) != Correct || p.IsFaulty(n) {
			t.Fatalf("fresh plan marks node %d faulty", n)
		}
	}
	if p.NumFaulty() != 0 {
		t.Error("fresh plan has faulty nodes")
	}
	if p.Link(0, 1) != LinkCorrect {
		t.Error("fresh plan has non-correct link")
	}
}

func TestNilPlanIsAllCorrect(t *testing.T) {
	var p *Plan
	if p.IsFaulty(3) || p.Behavior(3) != Correct || p.Link(1, 2) != LinkCorrect {
		t.Error("nil plan should behave all-correct")
	}
	if p.FaultyNodes() != nil || p.NumFaulty() != 0 {
		t.Error("nil plan reports faults")
	}
}

func TestFailSilentLinks(t *testing.T) {
	p := NewPlan(5)
	p.SetBehavior(2, FailSilent)
	if p.Link(2, 3) != LinkStuck0 {
		t.Error("fail-silent node's out-link not stuck-0")
	}
	if p.Link(3, 2) != LinkCorrect {
		t.Error("in-link of a fail-silent node should stay correct")
	}
}

func TestByzantineLinkOverrides(t *testing.T) {
	p := NewPlan(5)
	p.SetBehavior(1, Byzantine)
	// Without explicit assignment, Byzantine defaults to stuck-0.
	if p.Link(1, 0) != LinkStuck0 {
		t.Error("unassigned Byzantine link not stuck-0")
	}
	p.SetLink(1, 0, LinkStuck1)
	if p.Link(1, 0) != LinkStuck1 {
		t.Error("explicit link override ignored")
	}
	// The sender's other links still follow its behavior, and an override
	// on a correct sender's link wins over its behavior too.
	if p.Link(1, 2) != LinkStuck0 {
		t.Error("override leaked to another link of the same sender")
	}
	p.SetLink(3, 4, LinkStuck0)
	if p.Link(3, 4) != LinkStuck0 || p.Link(3, 2) != LinkCorrect || p.Link(4, 3) != LinkCorrect {
		t.Error("override on a correct sender's link misapplied")
	}
}

func TestFaultyNodesSorted(t *testing.T) {
	p := NewPlan(10)
	p.SetBehavior(7, Byzantine)
	p.SetBehavior(2, FailSilent)
	got := p.FaultyNodes()
	if len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Errorf("FaultyNodes = %v", got)
	}
}

func TestRandomizeByzantine(t *testing.T) {
	h := grid.MustHex(5, 6)
	p := NewPlan(h.NumNodes())
	n := h.NodeID(2, 3)
	p.SetBehavior(n, Byzantine)
	p.RandomizeByzantine(h.Graph, sim.NewRNG(3))
	for _, l := range h.Out(n) {
		m := p.Link(n, l.To)
		if m != LinkStuck0 && m != LinkStuck1 {
			t.Fatalf("Byzantine out-link mode %v", m)
		}
	}
	// Over many nodes/seeds both modes must appear.
	counts := map[LinkMode]int{}
	for seed := uint64(0); seed < 20; seed++ {
		p := NewPlan(h.NumNodes())
		p.SetBehavior(n, Byzantine)
		p.RandomizeByzantine(h.Graph, sim.NewRNG(seed))
		for _, l := range h.Out(n) {
			counts[p.Link(n, l.To)]++
		}
	}
	if counts[LinkStuck0] == 0 || counts[LinkStuck1] == 0 {
		t.Errorf("randomization never produced both modes: %v", counts)
	}
}

func TestCondition1Detects(t *testing.T) {
	h := grid.MustHex(5, 8)
	p := NewPlan(h.NumNodes())
	// Two faulty nodes that share an out-neighbor: (1,3) and (1,4) are both
	// in-neighbors of (2,3) (its lower-left and lower-right).
	p.SetBehavior(h.NodeID(1, 3), FailSilent)
	p.SetBehavior(h.NodeID(1, 4), FailSilent)
	ok, violating := Condition1(h.Graph, p)
	if ok {
		t.Fatal("Condition 1 not violated by adjacent lower neighbors")
	}
	if violating != h.NodeID(2, 3) {
		// Multiple nodes violate; the reported one must at least be real.
		faultyIn := 0
		for _, l := range h.In(violating) {
			if p.IsFaulty(l.From) {
				faultyIn++
			}
		}
		if faultyIn <= 1 {
			t.Errorf("reported node %d is not actually violating", violating)
		}
	}
}

func TestCondition1AcceptsSeparated(t *testing.T) {
	h := grid.MustHex(10, 10)
	p := NewPlan(h.NumNodes())
	p.SetBehavior(h.NodeID(1, 1), Byzantine)
	p.SetBehavior(h.NodeID(8, 6), Byzantine)
	if ok, v := Condition1(h.Graph, p); !ok {
		t.Errorf("well-separated faults rejected (violating node %d)", v)
	}
}

func TestCondition1SingleFaultAlwaysOK(t *testing.T) {
	h := grid.MustHex(6, 6)
	for n := 0; n < h.NumNodes(); n++ {
		p := NewPlan(h.NumNodes())
		p.SetBehavior(n, Byzantine)
		if ok, _ := Condition1(h.Graph, p); !ok {
			t.Fatalf("single fault at node %d violates Condition 1", n)
		}
	}
}

func TestPlaceRandomSatisfiesCondition1(t *testing.T) {
	h := grid.MustHex(20, 20)
	rng := sim.NewRNG(9)
	for f := 0; f <= 6; f++ {
		placed, err := PlaceRandom(h.Graph, f, nil, rng, 0)
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if len(placed) != f {
			t.Fatalf("placed %d faults, want %d", len(placed), f)
		}
		p := NewPlan(h.NumNodes())
		for _, n := range placed {
			p.SetBehavior(n, Byzantine)
		}
		if ok, v := Condition1(h.Graph, p); !ok {
			t.Fatalf("f=%d placement violates Condition 1 at node %d", f, v)
		}
		// Distinctness.
		seen := map[int]bool{}
		for _, n := range placed {
			if seen[n] {
				t.Fatalf("duplicate fault node %d", n)
			}
			seen[n] = true
		}
	}
}

func TestPlaceRandomImpossible(t *testing.T) {
	h := grid.MustHex(1, 3)
	// 6 nodes total; every pair of distinct nodes shares an out-neighbor in
	// such a tiny grid, so large f must fail.
	if _, err := PlaceRandom(h.Graph, 5, nil, sim.NewRNG(1), 50); err == nil {
		t.Error("expected placement failure on tiny grid")
	}
	if _, err := PlaceRandom(h.Graph, 100, nil, sim.NewRNG(1), 50); err == nil {
		t.Error("expected error for f > candidates")
	}
}

func TestPlaceRandomCandidates(t *testing.T) {
	h := grid.MustHex(10, 10)
	cands := h.Layer(5)
	placed, err := PlaceRandom(h.Graph, 2, cands, sim.NewRNG(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range placed {
		if h.LayerOf(n) != 5 {
			t.Errorf("fault %d placed outside candidate layer", n)
		}
	}
}

// TestPlaceDrawsPlacementThenLinks pins Place's use of its rng: the
// placement is PlaceRandom's, and Byzantine link outputs come from the
// same rng right after it, so a seeded run's faults never depend on which
// caller placed them.
func TestPlaceDrawsPlacementThenLinks(t *testing.T) {
	h := grid.MustHex(10, 10)
	for _, b := range []Behavior{Byzantine, FailSilent} {
		p := NewPlan(h.NumNodes())
		placed, err := Place(context.Background(), h.Graph, p, 3, nil, b, sim.NewRNG(4))
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(4)
		want, _ := PlaceRandom(h.Graph, 3, nil, rng, 0)
		ref := NewPlan(h.NumNodes())
		for _, n := range want {
			ref.SetBehavior(n, b)
		}
		if b == Byzantine {
			ref.RandomizeByzantine(h.Graph, rng)
		}
		if !slices.Equal(placed, want) || !slices.Equal(p.FaultyNodes(), want) {
			t.Fatalf("%s: placed %v, plan %v, want %v", b, placed, p.FaultyNodes(), want)
		}
		for _, n := range want {
			if p.Behavior(n) != b {
				t.Errorf("%s: node %d is %s", b, n, p.Behavior(n))
			}
			for _, l := range h.Out(n) {
				if got, exp := p.Link(n, l.To), ref.Link(n, l.To); got != exp {
					t.Errorf("%s: link %d→%d is %s, want %s", b, n, l.To, got, exp)
				}
			}
		}
	}
}

func TestParseBehavior(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults int
		want   Behavior
	}{
		{"", 0, Correct},
		{"", 2, Byzantine},
		{"correct", 0, Correct},
		{"byzantine", 0, Byzantine},
		{"byzantine", 2, Byzantine},
		{"fail-silent", 1, FailSilent},
		{"failsilent", 1, FailSilent},
		{"crash", 1, FailSilent},
	} {
		got, err := ParseBehavior(tc.name, tc.faults)
		if err != nil || got != tc.want {
			t.Errorf("ParseBehavior(%q, %d) = %s, %v; want %s", tc.name, tc.faults, got, err, tc.want)
		}
	}
	for _, bad := range []string{"correct", "sleepy", "Byzantine"} {
		if _, err := ParseBehavior(bad, 1); err == nil {
			t.Errorf("ParseBehavior(%q, 1) accepted", bad)
		}
	}
}

func TestMarkColumnFailSilent(t *testing.T) {
	h := grid.MustHex(4, 6)
	p := NewPlan(h.NumNodes())
	MarkColumnFailSilent(h, p, 2)
	for l := 0; l <= 4; l++ {
		if p.Behavior(h.NodeID(l, 2)) != FailSilent {
			t.Fatalf("(%d,2) not fail-silent", l)
		}
	}
	if p.NumFaulty() != 5 {
		t.Errorf("NumFaulty = %d, want 5", p.NumFaulty())
	}
}

func TestBehaviorStrings(t *testing.T) {
	if Correct.String() != "correct" || FailSilent.String() != "fail-silent" || Byzantine.String() != "byzantine" {
		t.Error("behavior names wrong")
	}
	if LinkCorrect.String() != "correct" || LinkStuck0.String() != "stuck-0" || LinkStuck1.String() != "stuck-1" {
		t.Error("link mode names wrong")
	}
}

func TestCheckLivenessFaultFree(t *testing.T) {
	h := grid.MustHex(6, 8)
	ok, starved := CheckLiveness(h.Graph, NewPlan(h.NumNodes()))
	if !ok || len(starved) != 0 {
		t.Errorf("fault-free grid reported starved nodes: %v", starved)
	}
}

func TestCheckLivenessAdjacentCrashPair(t *testing.T) {
	// Two adjacent crashed nodes starve their common upper neighbor.
	h := grid.MustHex(6, 8)
	p := NewPlan(h.NumNodes())
	p.SetBehavior(h.NodeID(3, 4), FailSilent)
	p.SetBehavior(h.NodeID(3, 5), FailSilent)
	ok, starved := CheckLiveness(h.Graph, p)
	if ok {
		t.Fatal("adjacent crash pair reported live")
	}
	// (4,4) starves, and so do nodes that depend on it exclusively — at
	// least (4,4) must be in the list.
	found := false
	for _, n := range starved {
		if n == h.NodeID(4, 4) {
			found = true
		}
	}
	if !found {
		t.Errorf("starved list %v misses the common upper neighbor", starved)
	}
}

func TestCheckLivenessSourceDistanceTwoDeadlock(t *testing.T) {
	// The pattern Condition 1 misses: two fail-silent *sources* at cyclic
	// column distance 2 deadlock the two layer-1 nodes between them, even
	// though every node has at most one faulty in-neighbor.
	h := grid.MustHex(6, 12)
	p := NewPlan(h.NumNodes())
	p.SetBehavior(h.NodeID(0, 3), FailSilent)
	p.SetBehavior(h.NodeID(0, 5), FailSilent)
	if ok, _ := Condition1(h.Graph, p); !ok {
		t.Fatal("distance-2 source faults should satisfy literal Condition 1")
	}
	ok, starved := CheckLiveness(h.Graph, p)
	if ok {
		t.Fatal("distance-2 source faults reported live")
	}
	want := map[int]bool{h.NodeID(1, 3): true, h.NodeID(1, 4): true}
	for _, n := range starved {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("starved list %v misses the deadlocked layer-1 pair", starved)
	}
}

func TestCheckLivenessStuck1Helps(t *testing.T) {
	// A Byzantine node with stuck-at-1 outputs can keep its upper
	// neighborhood live where a fail-silent one starves it.
	h := grid.MustHex(6, 8)
	p := NewPlan(h.NumNodes())
	a, b := h.NodeID(3, 4), h.NodeID(3, 5)
	p.SetBehavior(a, Byzantine)
	p.SetBehavior(b, Byzantine)
	for _, n := range []int{a, b} {
		for _, out := range h.Out(n) {
			p.SetLink(n, out.To, LinkStuck1)
		}
	}
	if ok, starved := CheckLiveness(h.Graph, p); !ok {
		t.Errorf("stuck-1 pair starved nodes: %v", starved)
	}
}

func TestPlaceRandomSourcesAvoidDeadlock(t *testing.T) {
	// Placement restricted to layer 0 must avoid the distance-2 deadlock.
	h := grid.MustHex(8, 12)
	rng := sim.NewRNG(17)
	for trial := 0; trial < 50; trial++ {
		placed, err := PlaceRandom(h.Graph, 3, h.Layer(0), rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPlan(h.NumNodes())
		for _, n := range placed {
			p.SetBehavior(n, FailSilent)
		}
		if ok, starved := CheckLiveness(h.Graph, p); !ok {
			t.Fatalf("trial %d: placement %v starves %v", trial, placed, starved)
		}
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// k-th call on.
type cancelAfter struct {
	context.Context
	calls, k int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestPlaceStopsWhenCancelled places 100 faults on a 110-node grid, which
// no try can satisfy, under a context cancelled before the first try and
// one cancelled during it: Place returns context.Canceled, unwrapped,
// after at most one try.
func TestPlaceStopsWhenCancelled(t *testing.T) {
	h := grid.MustHex(10, 10)
	for _, k := range []int{1, 2} {
		ctx := &cancelAfter{Context: context.Background(), k: k}
		_, err := Place(ctx, h.Graph, NewPlan(h.NumNodes()), 100, nil, Byzantine, sim.NewRNG(1))
		if err != context.Canceled {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if tries := ctx.calls - 1; tries != k-1 {
			t.Fatalf("k=%d: %d tries ran, want %d", k, tries, k-1)
		}
	}
	_, err := Place(context.Background(), h.Graph, NewPlan(h.NumNodes()), 100, nil, Byzantine, sim.NewRNG(1))
	var perr *ErrPlacement
	if !errors.As(err, &perr) {
		t.Fatalf("uncancelled: err = %v, want an ErrPlacement", err)
	}
}
