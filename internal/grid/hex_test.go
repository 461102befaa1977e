package grid

import (
	"testing"
	"testing/quick"
)

func TestNewHexValidation(t *testing.T) {
	if _, err := NewHex(0, 20); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := NewHex(5, 2); err == nil {
		t.Error("W=2 accepted")
	}
	if _, err := NewHex(1, 3); err != nil {
		t.Errorf("minimal grid rejected: %v", err)
	}
}

func TestHexCounts(t *testing.T) {
	h := MustHex(50, 20)
	if h.NumNodes() != 51*20 {
		t.Errorf("NumNodes = %d, want %d", h.NumNodes(), 51*20)
	}
	if h.NumLayers() != 51 {
		t.Errorf("NumLayers = %d, want 51", h.NumLayers())
	}
	for l := 0; l <= 50; l++ {
		if len(h.Layer(l)) != 20 {
			t.Fatalf("layer %d has %d nodes", l, len(h.Layer(l)))
		}
	}
}

func TestHexNodeIDCoordRoundTrip(t *testing.T) {
	h := MustHex(7, 9)
	for l := 0; l <= 7; l++ {
		for c := 0; c < 9; c++ {
			id := h.NodeID(l, c)
			gl, gc := h.Coord(id)
			if gl != l || gc != c {
				t.Fatalf("round trip (%d,%d) → %d → (%d,%d)", l, c, id, gl, gc)
			}
			if h.LayerOf(id) != l {
				t.Fatalf("LayerOf(%d) = %d, want %d", id, h.LayerOf(id), l)
			}
		}
	}
}

func TestHexNodeIDWraps(t *testing.T) {
	h := MustHex(3, 5)
	if h.NodeID(1, -1) != h.NodeID(1, 4) {
		t.Error("negative column did not wrap")
	}
	if h.NodeID(1, 5) != h.NodeID(1, 0) {
		t.Error("column W did not wrap")
	}
	if h.NodeID(2, 12) != h.NodeID(2, 2) {
		t.Error("large column did not wrap")
	}
}

func TestHexInDegrees(t *testing.T) {
	h := MustHex(4, 6)
	for n := 0; n < h.NumNodes(); n++ {
		in := h.In(n)
		if h.LayerOf(n) == 0 {
			if len(in) != 0 {
				t.Fatalf("layer-0 node %d has %d in-links", n, len(in))
			}
			continue
		}
		if len(in) != 4 {
			t.Fatalf("node %d has %d in-links, want 4", n, len(in))
		}
		// Sorted by role and one link per HEX role.
		want := []Role{RoleLeft, RoleLowerLeft, RoleLowerRight, RoleRight}
		for i, l := range in {
			if l.Role != want[i] {
				t.Fatalf("node %d in-link %d has role %v, want %v", n, i, l.Role, want[i])
			}
		}
	}
}

func TestHexOutDegrees(t *testing.T) {
	h := MustHex(4, 6)
	for n := 0; n < h.NumNodes(); n++ {
		out := h.Out(n)
		switch h.LayerOf(n) {
		case 0:
			// Sources feed only their two layer-1 neighbors.
			if len(out) != 2 {
				t.Fatalf("layer-0 node %d has %d out-links, want 2", n, len(out))
			}
		case 4: // top layer: only intra-layer links
			if len(out) != 2 {
				t.Fatalf("top node %d has %d out-links, want 2", n, len(out))
			}
		default:
			if len(out) != 4 {
				t.Fatalf("node %d has %d out-links, want 4", n, len(out))
			}
		}
	}
}

func TestHexNeighborGeometry(t *testing.T) {
	h := MustHex(5, 7)
	// Pick an interior node and verify the paper's Fig. 1 wiring.
	n := h.NodeID(2, 3)
	if l, ok := h.LeftNeighbor(n); !ok || l != h.NodeID(2, 2) {
		t.Errorf("left neighbor of (2,3) wrong")
	}
	if r, ok := h.RightNeighbor(n); !ok || r != h.NodeID(2, 4) {
		t.Errorf("right neighbor of (2,3) wrong")
	}
	if ll, ok := h.LowerLeftNeighbor(n); !ok || ll != h.NodeID(1, 3) {
		t.Errorf("lower-left neighbor of (2,3) wrong")
	}
	if lr, ok := h.LowerRightNeighbor(n); !ok || lr != h.NodeID(1, 4) {
		t.Errorf("lower-right neighbor of (2,3) wrong")
	}
}

func TestHexUpperLowerConsistency(t *testing.T) {
	// (ℓ,i) must be the lower-left neighbor of (ℓ+1,i) and the lower-right
	// neighbor of (ℓ+1,i−1).
	h := MustHex(6, 8)
	for l := 0; l < 6; l++ {
		for c := 0; c < 8; c++ {
			n := h.NodeID(l, c)
			ur := h.NodeID(l+1, c)
			if ll, ok := h.LowerLeftNeighbor(ur); !ok || ll != n {
				t.Fatalf("(%d,%d) is not lower-left of its upper-right", l, c)
			}
			ul := h.NodeID(l+1, c-1)
			if lr, ok := h.LowerRightNeighbor(ul); !ok || lr != n {
				t.Fatalf("(%d,%d) is not lower-right of its upper-left", l, c)
			}
		}
	}
}

func TestHexIntraLayerSymmetry(t *testing.T) {
	// Left/right neighbor relations are mutual.
	h := MustHex(3, 9)
	for l := 1; l <= 3; l++ {
		for _, n := range h.Layer(l) {
			r, ok := h.RightNeighbor(n)
			if !ok {
				t.Fatalf("node %d has no right neighbor", n)
			}
			back, ok := h.LeftNeighbor(r)
			if !ok || back != n {
				t.Fatalf("right/left neighbor asymmetry at %d", n)
			}
		}
	}
}

func TestHexOutMirrorsIn(t *testing.T) {
	h := MustHex(4, 5)
	// Every in-link must appear as the matching out-link of its source.
	for n := 0; n < h.NumNodes(); n++ {
		for _, in := range h.In(n) {
			found := false
			for _, out := range h.Out(in.From) {
				if out.To == n && out.Role == in.Role {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("in-link %v of node %d missing from out-links of %d", in, n, in.From)
			}
		}
	}
}

// TestLinkSlicesCapped: In and Out are windows onto flat link arrays, so
// their capacity must end with their length, or a caller's append would
// overwrite the next node's links.
func TestLinkSlicesCapped(t *testing.T) {
	h := MustHex(3, 4)
	n := h.NodeID(1, 1)
	next := h.In(n + 1)[0]
	in := append(h.In(n), InLink{From: -1})
	out := append(h.Out(n), OutLink{To: -1})
	if h.In(n + 1)[0] != next || len(in) != len(h.In(n))+1 {
		t.Fatal("appending to In(n) overwrote In(n+1)")
	}
	if cap(h.In(n)) != len(h.In(n)) || cap(h.Out(n)) != len(h.Out(n)) || len(out) != len(h.Out(n))+1 {
		t.Fatalf("In/Out capacities %d/%d exceed lengths %d/%d",
			cap(h.In(n)), cap(h.Out(n)), len(h.In(n)), len(h.Out(n)))
	}
}

func TestCyclicDistance(t *testing.T) {
	cases := []struct{ i, j, w, want int }{
		{0, 0, 20, 0},
		{0, 1, 20, 1},
		{1, 0, 20, 1},
		{0, 10, 20, 10},
		{0, 11, 20, 9},
		{19, 0, 20, 1},
		{5, 15, 20, 10},
		{2, 17, 20, 5},
	}
	for _, c := range cases {
		if got := CyclicDistance(c.i, c.j, c.w); got != c.want {
			t.Errorf("CyclicDistance(%d,%d,%d) = %d, want %d", c.i, c.j, c.w, got, c.want)
		}
	}
}

// TestCyclicDistanceMetric checks the metric axioms of |i−j|_W.
func TestCyclicDistanceMetric(t *testing.T) {
	const w = 17
	norm := func(i int16) int { return mod(int(i), w) }
	symmetry := func(a, b int16) bool {
		i, j := norm(a), norm(b)
		return CyclicDistance(i, j, w) == CyclicDistance(j, i, w)
	}
	if err := quick.Check(symmetry, nil); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a int16) bool {
		i := norm(a)
		return CyclicDistance(i, i, w) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Error("identity:", err)
	}
	triangle := func(a, b, c int16) bool {
		i, j, k := norm(a), norm(b), norm(c)
		return CyclicDistance(i, k, w) <= CyclicDistance(i, j, w)+CyclicDistance(j, k, w)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error("triangle:", err)
	}
	bounded := func(a, b int16) bool {
		return CyclicDistance(norm(a), norm(b), w) <= w/2
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Error("bound:", err)
	}
}

func TestHexDiameter(t *testing.T) {
	h := MustHex(50, 20)
	if d := h.Diameter(); d != 60 {
		t.Errorf("Diameter = %d, want 60", d)
	}
}

func TestNodeIDPanicsOnBadLayer(t *testing.T) {
	h := MustHex(3, 5)
	defer func() {
		if recover() == nil {
			t.Error("NodeID with layer out of range did not panic")
		}
	}()
	h.NodeID(4, 0)
}

func TestInNeighborsDistinct(t *testing.T) {
	// With W ≥ 3 every forwarding node has 4 distinct in-neighbors.
	h := MustHex(3, 3)
	for n := 0; n < h.NumNodes(); n++ {
		if h.LayerOf(n) == 0 {
			continue
		}
		seen := map[int]bool{}
		for _, v := range h.InNeighborsOf(n) {
			if seen[v] {
				t.Fatalf("node %d has duplicate in-neighbor %d (W=3)", n, v)
			}
			seen[v] = true
		}
	}
}

func TestRoleStrings(t *testing.T) {
	names := map[Role]string{
		RoleLeft: "left", RoleLowerLeftOuter: "lower-left-outer",
		RoleLowerLeft: "lower-left", RoleLowerRight: "lower-right",
		RoleLowerRightOuter: "lower-right-outer", RoleRight: "right",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("Role(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestHexCyclicDistanceMethod(t *testing.T) {
	h := MustHex(3, 20)
	if h.CyclicDistance(2, 17) != 5 {
		t.Errorf("CyclicDistance(2,17) = %d", h.CyclicDistance(2, 17))
	}
	if h.CyclicDistance(0, 10) != 10 {
		t.Error("antipodal distance wrong")
	}
}

func TestOutNeighborsOf(t *testing.T) {
	h := MustHex(3, 5)
	n := h.NodeID(1, 2)
	outs := h.OutNeighborsOf(n)
	want := map[int]bool{
		h.NodeID(1, 1): true, h.NodeID(1, 3): true, // left, right
		h.NodeID(2, 1): true, h.NodeID(2, 2): true, // upper-left, upper-right
	}
	if len(outs) != 4 {
		t.Fatalf("out-neighbors = %v", outs)
	}
	for _, m := range outs {
		if !want[m] {
			t.Errorf("unexpected out-neighbor %d", m)
		}
	}
}

func TestMustHexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHex(0, 0) did not panic")
		}
	}()
	MustHex(0, 0)
}

func TestMustHexPlusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHexPlus(0, 0) did not panic")
		}
	}()
	MustHexPlus(0, 0)
}
