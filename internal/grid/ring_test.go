package grid

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRingLayout pins the layout the core's ring sweep
// (internal/core/sweep.go) settles a layer by, on every topology the three
// constructors build: layer-0 nodes have no inputs; a forwarding node has
// at most one input per role, its Left input from the previous node of
// Layer(l), cyclically, its Right input from the next, and every other
// input from the layer below; each ring role sits in exactly one guard
// pair, and no pair holds both.
func TestRingLayout(t *testing.T) {
	type topo struct {
		name string
		g    *Graph
	}
	var topos []topo
	for w := 3; w <= 9; w++ {
		topos = append(topos, topo{fmt.Sprintf("hex_W%d", w), MustHex(4, w).Graph})
	}
	for w := 5; w <= 9; w++ {
		topos = append(topos, topo{fmt.Sprintf("hexplus_W%d", w), MustHexPlus(4, w).Graph})
	}
	rnd := rand.New(rand.NewSource(30))
	for i := 0; i < 40; i++ {
		doubling := make([]bool, 1+rnd.Intn(12))
		for l := range doubling {
			doubling[l] = rnd.Intn(2) == 0
		}
		w := 3 + rnd.Intn(6)
		d, err := NewDoubling(w, doubling)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo{fmt.Sprintf("doubling_W%d_%v", w, doubling), d.Graph})
	}
	for _, tp := range topos {
		checkRingLayout(t, tp.name, tp.g)
	}
}

func checkRingLayout(t *testing.T, name string, g *Graph) {
	t.Helper()
	for l := 0; l < g.NumLayers(); l++ {
		ids := g.Layer(l)
		w := len(ids)
		for c, id := range ids {
			if g.LayerOf(id) != l {
				t.Fatalf("%s: node %d listed in layer %d has LayerOf %d", name, id, l, g.LayerOf(id))
			}
			in := g.In(id)
			if l == 0 {
				if len(in) != 0 {
					t.Fatalf("%s: layer-0 node %d has %d inputs", name, id, len(in))
				}
				continue
			}
			var seen [NumRoles]bool
			for _, link := range in {
				if seen[link.Role] {
					t.Fatalf("%s: node %d has two %v inputs", name, id, link.Role)
				}
				seen[link.Role] = true
				want, from := l-1, g.LayerOf(link.From)
				switch link.Role {
				case RoleLeft:
					want = l
					if link.From != ids[(c+w-1)%w] {
						t.Fatalf("%s: node %d (layer %d, position %d) has Left input %d, want the previous node %d",
							name, id, l, c, link.From, ids[(c+w-1)%w])
					}
				case RoleRight:
					want = l
					if link.From != ids[(c+1)%w] {
						t.Fatalf("%s: node %d (layer %d, position %d) has Right input %d, want the next node %d",
							name, id, l, c, link.From, ids[(c+1)%w])
					}
				}
				if from != want {
					t.Fatalf("%s: node %d of layer %d has its %v input from layer %d, want %d",
						name, id, l, link.Role, from, want)
				}
			}
			if !seen[RoleLeft] || !seen[RoleRight] {
				t.Fatalf("%s: node %d of layer %d lacks a ring input", name, id, l)
			}
		}
	}
	var inPairs [NumRoles]int
	for _, p := range g.GuardPairs() {
		if (p[0] == RoleLeft || p[0] == RoleRight) && (p[1] == RoleLeft || p[1] == RoleRight) {
			t.Fatalf("%s: guard pair %v holds both ring roles", name, p)
		}
		inPairs[p[0]]++
		inPairs[p[1]]++
	}
	if inPairs[RoleLeft] != 1 || inPairs[RoleRight] != 1 {
		t.Fatalf("%s: Left is in %d guard pairs and Right in %d, want one each",
			name, inPairs[RoleLeft], inPairs[RoleRight])
	}
}
