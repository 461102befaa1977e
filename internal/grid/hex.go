package grid

import "fmt"

// Hex is the cylindric hexagonal grid of the paper (Fig. 1): layers
// 0, …, L of W columns each, with column arithmetic modulo W.
//
// Node (ℓ, i), ℓ > 0, receives from its left neighbor (ℓ, i−1), its right
// neighbor (ℓ, i+1), its lower-left neighbor (ℓ−1, i) and its lower-right
// neighbor (ℓ−1, i+1); it sends to its left, right, upper-left (ℓ+1, i−1)
// and upper-right (ℓ+1, i) neighbors. Layer-0 nodes are clock sources with
// outgoing links to layer 1 only.
type Hex struct {
	*Graph
	// L is the grid length: the highest layer index. The grid has L+1 layers.
	L int
	// W is the grid width: the number of columns.
	W int
}

// NewHex constructs a cylindric hexagonal grid with layers 0..L and W
// columns. It requires L ≥ 1 and W ≥ 3 (the paper's skew analysis assumes
// W > 2, and with W < 3 the modular neighbor structure degenerates).
func NewHex(L, W int) (*Hex, error) {
	if L < 1 {
		return nil, fmt.Errorf("grid: length L must be at least 1, got %d", L)
	}
	if W < 3 {
		return nil, fmt.Errorf("grid: width W must be at least 3, got %d", W)
	}
	b := newBuilder()
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
			b.addLink(id(l-1, i), n, RoleLowerLeft)
			b.addLink(id(l-1, i+1), n, RoleLowerRight)
			b.addLink(id(l, i+1), n, RoleRight)
		}
	}
	return &Hex{Graph: b.build(), L: L, W: W}, nil
}

// MustHex is NewHex that panics on invalid parameters; for tests and
// examples with constant sizes.
func MustHex(L, W int) *Hex {
	h, err := NewHex(L, W)
	if err != nil {
		panic(err)
	}
	return h
}

// mod returns i modulo w in [0, w), also for negative i.
func mod(i, w int) int {
	m := i % w
	if m < 0 {
		m += w
	}
	return m
}

// NodeID returns the node id of (layer, col). The column is taken modulo W;
// the layer must be in [0, L].
func (h *Hex) NodeID(layer, col int) int {
	if layer < 0 || layer > h.L {
		panic(fmt.Sprintf("grid: layer %d out of range [0,%d]", layer, h.L))
	}
	return layer*h.W + mod(col, h.W)
}

// Coord returns the (layer, column) of node id n.
func (h *Hex) Coord(n int) (layer, col int) { return n / h.W, n % h.W }

// CyclicDistance returns the cyclic column distance |i−j|_W of
// Definition 3: min{(i−j) mod W, (j−i) mod W}.
func CyclicDistance(i, j, w int) int {
	d := mod(i-j, w)
	if w-d < d {
		return w - d
	}
	return d
}

// CyclicDistance returns |i−j|_W for this grid's width.
func (h *Hex) CyclicDistance(i, j int) int { return CyclicDistance(i, j, h.W) }

// Diameter returns the hop diameter of the undirected communication graph,
// which for the cylindric grid is Θ(L + W).
func (h *Hex) Diameter() int {
	half := h.W / 2
	return h.L + half
}
