// Package fault describes fault plans for HEX simulations: which nodes are
// Byzantine or fail-silent, how each faulty outgoing link behaves, and the
// fault-separation Condition 1 of the paper, including uniformly random
// fault placement under that condition (Section 3.2).
package fault

import (
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/sim"
)

// Behavior classifies a node's failure mode.
type Behavior uint8

const (
	// Correct nodes faithfully execute the HEX algorithm.
	Correct Behavior = iota
	// FailSilent nodes never send any trigger message (all outgoing links
	// constant 0), the paper's "fail-silent" / crash model.
	FailSilent
	// Byzantine nodes choose, per outgoing link, a constant 0 (never
	// trigger) or constant 1 (permanently trigger) output, exactly the
	// fault model of the paper's testbench (Section 4.1, item (4)).
	Byzantine
)

// String returns the name of the behavior.
func (b Behavior) String() string {
	switch b {
	case Correct:
		return "correct"
	case FailSilent:
		return "fail-silent"
	case Byzantine:
		return "byzantine"
	}
	return fmt.Sprintf("Behavior(%d)", uint8(b))
}

// LinkMode is the effective behavior of a directed link.
type LinkMode uint8

const (
	// LinkCorrect delivers messages with a delay in [d−, d+].
	LinkCorrect LinkMode = iota
	// LinkStuck0 never delivers anything: the receiver's input stays low.
	LinkStuck0
	// LinkStuck1 holds the receiver's input permanently high: the
	// corresponding memory flag is always set.
	LinkStuck1
)

// String returns the name of the link mode.
func (m LinkMode) String() string {
	switch m {
	case LinkCorrect:
		return "correct"
	case LinkStuck0:
		return "stuck-0"
	case LinkStuck1:
		return "stuck-1"
	}
	return fmt.Sprintf("LinkMode(%d)", uint8(m))
}

type linkKey struct{ from, to int }

// Plan is a complete fault assignment for one simulation run: per-node
// behaviors plus per-link overrides. The zero value of Plan is not usable;
// construct with NewPlan.
type Plan struct {
	behavior []Behavior
	links    map[linkKey]LinkMode
	// overrides marks the senders with at least one entry in links, so
	// Link consults the map only for them. Allocated by the first SetLink.
	overrides []bool
}

// NewPlan returns an all-correct plan for a graph with numNodes nodes.
func NewPlan(numNodes int) *Plan {
	return &Plan{
		behavior: make([]Behavior, numNodes),
		links:    make(map[linkKey]LinkMode),
	}
}

// SetBehavior marks node n with the given behavior. For Byzantine nodes the
// per-link outputs must then be fixed with SetLink or RandomizeByzantine.
func (p *Plan) SetBehavior(n int, b Behavior) { p.behavior[n] = b }

// Behavior returns node n's failure mode.
func (p *Plan) Behavior(n int) Behavior {
	if p == nil {
		return Correct
	}
	return p.behavior[n]
}

// IsFaulty reports whether node n is not correct.
func (p *Plan) IsFaulty(n int) bool { return p.Behavior(n) != Correct }

// SetLink overrides the mode of the directed link from→to.
func (p *Plan) SetLink(from, to int, m LinkMode) {
	if p.overrides == nil {
		p.overrides = make([]bool, len(p.behavior))
	}
	p.overrides[from] = true
	p.links[linkKey{from, to}] = m
}

// Link resolves the effective mode of the directed link from→to: an explicit
// link override wins, otherwise the sender's behavior decides (fail-silent ⇒
// stuck-0; Byzantine without explicit assignment ⇒ stuck-0).
func (p *Plan) Link(from, to int) LinkMode {
	if p == nil {
		return LinkCorrect
	}
	if p.overrides != nil && p.overrides[from] {
		if m, ok := p.links[linkKey{from, to}]; ok {
			return m
		}
	}
	switch p.behavior[from] {
	case FailSilent, Byzantine:
		return LinkStuck0
	}
	return LinkCorrect
}

// FaultyNodes returns the sorted ids of all non-correct nodes.
func (p *Plan) FaultyNodes() []int {
	if p == nil {
		return nil
	}
	var out []int
	for n, b := range p.behavior {
		if b != Correct {
			out = append(out, n)
		}
	}
	return out
}

// NumFaulty returns the number of non-correct nodes.
func (p *Plan) NumFaulty() int { return len(p.FaultyNodes()) }

// RandomizeByzantine assigns, for every Byzantine node, an independent
// uniformly random stuck-0/stuck-1 mode to each of its outgoing links in g,
// as the paper's testbench does ("each Byzantine node randomly selects its
// behavior on each outgoing link", Section 4.3).
func (p *Plan) RandomizeByzantine(g *grid.Graph, rng *sim.RNG) {
	for n, b := range p.behavior {
		if b != Byzantine {
			continue
		}
		for _, l := range g.Out(n) {
			mode := LinkStuck0
			if rng.Bool() {
				mode = LinkStuck1
			}
			p.SetLink(n, l.To, mode)
		}
	}
}

// Condition1 reports whether the plan satisfies the paper's fault-separation
// condition: "For each node, no more than one of its incoming links connects
// to a faulty neighbor." If it fails, the first offending node is returned.
func Condition1(g *grid.Graph, p *Plan) (ok bool, violating int) {
	for n := 0; n < g.NumNodes(); n++ {
		faultyIn := 0
		for _, l := range g.In(n) {
			if p.IsFaulty(l.From) {
				faultyIn++
			}
		}
		if faultyIn > 1 {
			return false, n
		}
	}
	return true, -1
}

// ErrPlacement is returned when random placement cannot satisfy Condition 1.
type ErrPlacement struct {
	F, Tries int
}

func (e *ErrPlacement) Error() string {
	return fmt.Sprintf("fault: could not place %d faults under Condition 1 in %d tries", e.F, e.Tries)
}

// PlaceRandom returns f distinct node ids drawn uniformly at random from the
// candidates such that marking exactly those nodes faulty satisfies
// Condition 1 *and* leaves every correct node triggerable (CheckLiveness,
// evaluated for the worst case of fail-silent faults), using rejection
// sampling (the paper: "faulty nodes were placed uniformly at random under
// the constraint that Condition 1 held" — see CheckLiveness for the one
// layer-0 pattern where Condition 1 alone does not suffice). candidates nil
// means all nodes of g. It fails after maxTries rejections.
func PlaceRandom(g *grid.Graph, f int, candidates []int, rng *sim.RNG, maxTries int) ([]int, error) {
	if f == 0 {
		return nil, nil
	}
	if candidates == nil {
		candidates = make([]int, g.NumNodes())
		for i := range candidates {
			candidates[i] = i
		}
	}
	if f > len(candidates) {
		return nil, fmt.Errorf("fault: cannot place %d faults among %d candidates", f, len(candidates))
	}
	if maxTries <= 0 {
		maxTries = 10000
	}
	for try := 0; try < maxTries; try++ {
		perm := rng.Perm(len(candidates))
		chosen := make([]int, f)
		for i := 0; i < f; i++ {
			chosen[i] = candidates[perm[i]]
		}
		p := NewPlan(g.NumNodes())
		for _, n := range chosen {
			p.SetBehavior(n, FailSilent) // behavior irrelevant for the check
		}
		if ok, _ := Condition1(g, p); ok {
			if live, _ := CheckLiveness(g, p); live {
				sort.Ints(chosen)
				return chosen, nil
			}
		}
	}
	return nil, &ErrPlacement{F: f, Tries: maxTries}
}

// Place marks f nodes of p with behavior b, drawn by PlaceRandom from the
// candidates (nil: all nodes of g), and then, for Byzantine faults, draws
// every Byzantine node's per-link outputs with RandomizeByzantine from the
// same rng. It returns the placed node ids, sorted.
func Place(g *grid.Graph, p *Plan, f int, candidates []int, b Behavior, rng *sim.RNG) ([]int, error) {
	placed, err := PlaceRandom(g, f, candidates, rng, 0)
	if err != nil {
		return nil, err
	}
	for _, n := range placed {
		p.SetBehavior(n, b)
	}
	if b == Byzantine {
		p.RandomizeByzantine(g, rng)
	}
	return placed, nil
}

// ParseBehavior maps a fault-type name to a Behavior: "byzantine",
// "fail-silent" (also "failsilent" and "crash"), or "correct", which is
// accepted only with faults == 0 so a canonical behavior string round-trips.
// The empty name means Byzantine when faults > 0 and Correct otherwise.
func ParseBehavior(name string, faults int) (Behavior, error) {
	switch name {
	case "":
		if faults > 0 {
			return Byzantine, nil
		}
		return Correct, nil
	case "correct":
		if faults > 0 {
			return 0, fmt.Errorf("fault type %q is incompatible with faults=%d", name, faults)
		}
		return Correct, nil
	case "byzantine":
		return Byzantine, nil
	case "fail-silent", "failsilent", "crash":
		return FailSilent, nil
	}
	return 0, fmt.Errorf("unknown fault type %q (want byzantine or fail-silent)", name)
}

// MarkColumnFailSilent marks the entire column col of the hexagonal grid h
// fail-silent, the "barrier of dead nodes" device used in the worst-case
// construction of Fig. 5.
func MarkColumnFailSilent(h *grid.Hex, p *Plan, col int) {
	for l := 0; l <= h.L; l++ {
		p.SetBehavior(h.NodeID(l, col), FailSilent)
	}
}

// CheckLiveness computes, by fixpoint, which correct nodes can ever be
// triggered given the plan: layer-0 correct nodes trigger by fiat; a
// forwarding node is triggerable when some guard pair of its topology has
// both inputs satisfied — by a stuck-at-1 link, or by a triggerable correct
// in-neighbor over a correct link. It returns the correct forwarding nodes
// that can never fire ("starved").
//
// This is strictly stronger than Condition 1. Condition 1 almost implies
// liveness, but misses one pattern this reproduction surfaced: two faulty
// *clock sources* at cyclic column distance 2 starve the two layer-1 nodes
// between them (each can only complete a guard pair that includes the
// other). For ℓ ≥ 1 the analogous fault pattern already violates
// Condition 1 (the column between the faults would have two faulty
// in-neighbors); for layer 0 it does not, because sources have no incoming
// links. Placement helpers therefore enforce Condition 1 *and* liveness.
func CheckLiveness(g *grid.Graph, p *Plan) (ok bool, starved []int) {
	triggerable := make([]bool, g.NumNodes())
	for _, n := range g.Layer(0) {
		triggerable[n] = !p.IsFaulty(n)
	}
	pairs := g.GuardPairs()
	for changed := true; changed; {
		changed = false
		for n := 0; n < g.NumNodes(); n++ {
			if triggerable[n] || p.IsFaulty(n) || g.LayerOf(n) == 0 {
				continue
			}
			var have [grid.NumRoles]bool
			for _, l := range g.In(n) {
				switch p.Link(l.From, n) {
				case LinkStuck1:
					have[l.Role] = true
				case LinkCorrect:
					if triggerable[l.From] {
						have[l.Role] = true
					}
				}
			}
			for _, pr := range pairs {
				if have[pr[0]] && have[pr[1]] {
					triggerable[n] = true
					changed = true
					break
				}
			}
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		if !p.IsFaulty(n) && g.LayerOf(n) != 0 && !triggerable[n] {
			starved = append(starved, n)
		}
	}
	return len(starved) == 0, starved
}
