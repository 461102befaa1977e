// Package grid defines the communication topologies HEX runs on: the
// cylindric hexagonal grid of the paper (Fig. 1) and the alternative
// circular "doubling-layer" topology sketched in Section 5 (Fig. 21).
//
// Topologies are represented as a layered directed Graph. Every node in a
// layer ℓ > 0 has up to four incoming links, each classified by the Role it
// plays at the receiver (left, lower-left, lower-right, right); Algorithm 1's
// firing guard is defined over adjacent Role pairs.
package grid

import (
	"fmt"
	"slices"
)

// Role identifies which of a node's inputs an incoming link drives.
// The order of the constants is the geometric left-to-right order around
// the bottom half of the node, which is what makes "adjacent pair" guards
// meaningful. The outer roles exist only in the augmented HEX+ topology of
// Section 5 ("connecting each node to additional in-neighbors from the
// previous layer"); plain HEX uses left, lower-left, lower-right, right.
type Role uint8

const (
	RoleLeft Role = iota
	// RoleLowerLeftOuter is the HEX+ input from (ℓ−1, i−1).
	RoleLowerLeftOuter
	RoleLowerLeft
	RoleLowerRight
	// RoleLowerRightOuter is the HEX+ input from (ℓ−1, i+2).
	RoleLowerRightOuter
	RoleRight
	// NumRoles is the number of distinct input roles a node can have.
	NumRoles
)

// String returns the paper's name for the role.
func (r Role) String() string {
	switch r {
	case RoleLeft:
		return "left"
	case RoleLowerLeftOuter:
		return "lower-left-outer"
	case RoleLowerLeft:
		return "lower-left"
	case RoleLowerRight:
		return "lower-right"
	case RoleLowerRightOuter:
		return "lower-right-outer"
	case RoleRight:
		return "right"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// GuardPairs lists the firing guard of Algorithm 1 on the plain HEX grid:
// a node triggers once it has memorized trigger messages from the (left and
// lower-left), (lower-left and lower-right), or (lower-right and right)
// neighbors.
var GuardPairs = [][2]Role{
	{RoleLeft, RoleLowerLeft},
	{RoleLowerLeft, RoleLowerRight},
	{RoleLowerRight, RoleRight},
}

// HexPlusGuardPairs extends the guard to the six geometrically ordered
// inputs of the HEX+ topology: every pair of adjacent inputs triggers.
var HexPlusGuardPairs = [][2]Role{
	{RoleLeft, RoleLowerLeftOuter},
	{RoleLowerLeftOuter, RoleLowerLeft},
	{RoleLowerLeft, RoleLowerRight},
	{RoleLowerRight, RoleLowerRightOuter},
	{RoleLowerRightOuter, RoleRight},
}

// InLink is an incoming link as seen from its destination node.
type InLink struct {
	From int  // source node id
	Role Role // input the link drives at the destination
}

// OutLink is an outgoing link as seen from its source node.
type OutLink struct {
	To   int  // destination node id
	Role Role // input the link drives at the destination
	// InIdx is the index into In(To) of the first incoming link whose From
	// is this link's source: the input a message over this link drives at
	// the receiver. It is precomputed at build time so message delivery
	// needs no per-event scan of the receiver's inputs. ("First" matters on
	// narrow wrap-around grids where one source can drive two inputs of the
	// same destination; receivers memorize such a message on the
	// lowest-Role input, matching a linear scan over the role-sorted
	// inputs.)
	InIdx int32
}

// Graph is a layered directed communication graph. Layer 0 holds the clock
// sources; nodes in higher layers run the HEX forwarding algorithm. A Graph
// is immutable after construction.
type Graph struct {
	layerOf []int
	layers  [][]int
	// Links in compressed sparse row form: node n's incoming links are
	// in[inOff[n]:inOff[n+1]] and its outgoing links out[outOff[n]:outOff[n+1]],
	// two flat arrays instead of two small arrays per node.
	in         []InLink
	inOff      []int32
	out        []OutLink
	outOff     []int32
	guardPairs [][2]Role
}

// GuardPairs returns the firing guard of this topology: the list of input
// pairs whose joint memorization triggers a node. Plain HEX and the
// doubling topology use Algorithm 1's three pairs; HEX+ uses five.
func (g *Graph) GuardPairs() [][2]Role { return g.guardPairs }

// builder incrementally constructs a Graph.
type builder struct {
	g     Graph
	links []link // in addLink order
}

// link is one directed link recorded by addLink.
type link struct {
	from, to int
	role     Role
}

func newBuilder() *builder { return &builder{} }

// addNode creates a node in the given layer and returns its id. Layers must
// be introduced in nondecreasing order starting from 0.
func (b *builder) addNode(layer int) int {
	id := len(b.g.layerOf)
	b.g.layerOf = append(b.g.layerOf, layer)
	for len(b.g.layers) <= layer {
		b.g.layers = append(b.g.layers, nil)
	}
	b.g.layers[layer] = append(b.g.layers[layer], id)
	return id
}

// addLink adds a directed link from node `from` to node `to`, driving input
// `role` at the destination.
func (b *builder) addLink(from, to int, role Role) {
	b.links = append(b.links, link{from, to, role})
}

// build finalizes the graph: it lays the links out in CSR form, each node's
// links in addLink order, sorts every node's incoming links by role for
// stable iteration order and precomputes the reverse-edge index
// (OutLink.InIdx). The default guard is Algorithm 1's three pairs.
func (b *builder) build() *Graph {
	g := &b.g
	n := len(g.layerOf)
	g.inOff = make([]int32, n+1)
	g.outOff = make([]int32, n+1)
	for _, l := range b.links {
		g.inOff[l.to+1]++
		g.outOff[l.from+1]++
	}
	for id := 0; id < n; id++ {
		g.inOff[id+1] += g.inOff[id]
		g.outOff[id+1] += g.outOff[id]
	}
	g.in = make([]InLink, len(b.links))
	g.out = make([]OutLink, len(b.links))
	inAt, outAt := slices.Clone(g.inOff), slices.Clone(g.outOff)
	for _, l := range b.links {
		g.in[inAt[l.to]] = InLink{From: l.from, Role: l.role}
		inAt[l.to]++
		g.out[outAt[l.from]] = OutLink{To: l.to, Role: l.role}
		outAt[l.from]++
	}
	b.links = nil
	for id := 0; id < n; id++ {
		links := g.In(id)
		// Insertion sort by Role; at most six links per node.
		for i := 1; i < len(links); i++ {
			for j := i; j > 0 && links[j].Role < links[j-1].Role; j-- {
				links[j], links[j-1] = links[j-1], links[j]
			}
		}
	}
	// Resolve each out-link's input index at its destination, after the
	// role sort above has fixed the final in-link order.
	for id := 0; id < n; id++ {
		outs := g.Out(id)
		for k := range outs {
			outs[k].InIdx = -1
			for i, l := range g.In(outs[k].To) {
				if l.From == id {
					outs[k].InIdx = int32(i)
					break
				}
			}
			if outs[k].InIdx < 0 {
				panic("grid: out-link without matching in-link")
			}
		}
	}
	if g.guardPairs == nil {
		g.guardPairs = GuardPairs
	}
	return g
}

// NumNodes returns the total number of nodes.
func (g *Graph) NumNodes() int { return len(g.layerOf) }

// NumLayers returns the number of layers (L+1 for a HEX grid of length L).
func (g *Graph) NumLayers() int { return len(g.layers) }

// LayerOf returns the layer index of node n.
func (g *Graph) LayerOf(n int) int { return g.layerOf[n] }

// Layer returns the node ids in layer l, in column order. The returned slice
// must not be modified.
func (g *Graph) Layer(l int) []int { return g.layers[l] }

// In returns node n's incoming links sorted by Role. The returned slice must
// not be modified; its capacity ends with its length, so an append copies
// rather than overwriting the next node's links.
func (g *Graph) In(n int) []InLink {
	a, b := g.inOff[n], g.inOff[n+1]
	return g.in[a:b:b]
}

// Out returns node n's outgoing links. The returned slice must not be
// modified; like In's, its capacity ends with its length.
func (g *Graph) Out(n int) []OutLink {
	a, b := g.outOff[n], g.outOff[n+1]
	return g.out[a:b:b]
}

// inFromRole returns the source of n's incoming link with the given role.
func (g *Graph) inFromRole(n int, role Role) (int, bool) {
	for _, l := range g.In(n) {
		if l.Role == role {
			return l.From, true
		}
	}
	return 0, false
}

// LeftNeighbor returns the node whose output drives n's left input, i.e.
// n's same-layer left neighbor, if any.
func (g *Graph) LeftNeighbor(n int) (int, bool) { return g.inFromRole(n, RoleLeft) }

// RightNeighbor returns n's same-layer right neighbor, if any.
func (g *Graph) RightNeighbor(n int) (int, bool) { return g.inFromRole(n, RoleRight) }

// LowerLeftNeighbor returns the node driving n's lower-left input, if any.
func (g *Graph) LowerLeftNeighbor(n int) (int, bool) { return g.inFromRole(n, RoleLowerLeft) }

// LowerRightNeighbor returns the node driving n's lower-right input, if any.
func (g *Graph) LowerRightNeighbor(n int) (int, bool) { return g.inFromRole(n, RoleLowerRight) }

// InNeighborsOf returns the distinct sources of n's incoming links.
func (g *Graph) InNeighborsOf(n int) []int {
	links := g.In(n)
	out := make([]int, 0, len(links))
	for _, l := range links {
		out = append(out, l.From)
	}
	return out
}

// OutNeighborsOf returns the distinct destinations of n's outgoing links.
func (g *Graph) OutNeighborsOf(n int) []int {
	links := g.Out(n)
	out := make([]int, 0, len(links))
	for _, l := range links {
		out = append(out, l.To)
	}
	return out
}
