package grid

import "fmt"

// NewHexPlus constructs the augmented grid suggested in Section 5 of the
// paper ("Decreasing skews further"): every node of the cylindric HEX grid
// additionally receives from two more neighbors in the previous layer,
// (ℓ−1, i−1) and (ℓ−1, i+2), giving six geometrically ordered inputs
//
//	left, lower-left-outer, lower-left, lower-right, lower-right-outer, right
//
// and the five adjacent-pair guards of HexPlusGuardPairs. The motivation in
// the paper: with only two lower in-neighbors, a faulty lower neighbor
// forces a node to wait for intra-layer "help", costing an extra hop of
// delay; the extra lower in-neighbors remove that detour, reducing the
// fault-induced skew increase (and, via clock multiplication, stabilization
// time).
//
// The returned value reuses the Hex coordinate accessors; W must be ≥ 5 so
// that all six in-neighbors are distinct.
func NewHexPlus(L, W int) (*Hex, error) {
	if L < 1 {
		return nil, fmt.Errorf("grid: length L must be at least 1, got %d", L)
	}
	if W < 5 {
		return nil, fmt.Errorf("grid: HEX+ width W must be at least 5, got %d", W)
	}
	b := newBuilder()
	b.g.guardPairs = HexPlusGuardPairs
	for l := 0; l <= L; l++ {
		for i := 0; i < W; i++ {
			b.addNode(l)
		}
	}
	id := func(l, i int) int { return l*W + mod(i, W) }
	for l := 1; l <= L; l++ {
		for i := 0; i < W; i++ {
			n := id(l, i)
			b.addLink(id(l, i-1), n, RoleLeft)
			b.addLink(id(l-1, i-1), n, RoleLowerLeftOuter)
			b.addLink(id(l-1, i), n, RoleLowerLeft)
			b.addLink(id(l-1, i+1), n, RoleLowerRight)
			b.addLink(id(l-1, i+2), n, RoleLowerRightOuter)
			b.addLink(id(l, i+1), n, RoleRight)
		}
	}
	return &Hex{Graph: b.build(), L: L, W: W}, nil
}

// MustHexPlus is NewHexPlus that panics on invalid parameters.
func MustHexPlus(L, W int) *Hex {
	h, err := NewHexPlus(L, W)
	if err != nil {
		panic(err)
	}
	return h
}
