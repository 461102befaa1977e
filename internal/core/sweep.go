package core

// The firing level (DESIGN §11, "Ring sweep"). In a single pulse under
// Algorithm 1's guard a correct forwarding node fires once, at the first
// instant one of its guard pairs has both inputs set. A pair either lies
// below the node, and completes once the layer below has fired, or holds
// one ring input, Left (from the previous node of its layer's ring) or
// Right (from the next), and its lower neighbour in the guard. So a layer's
// fire times follow from the layer below's in one sweep along its ring:
//
//   - base: each node's earliest completion of a pair no ring neighbour's
//     firing completes (a stuck-at-1 ring input reads 0, so its pair only
//     waits for the lower input);
//   - a rightward pass lets each node's Left neighbour help it, and a
//     leftward pass its Right neighbour;
//   - each node fires at the earlier of the two passes, if that is at or
//     before the horizon.
//
// A helper fires before the node it helps, so it was not itself helped by
// that node, and a chain that came back to a node could not lower its
// time: the shortest chain of help that sets a node's time runs one way
// around the ring, starts at some node's base and spans at most w−1
// links. A pass over 2w−2 consecutive links, nearly twice around the
// ring, relaxes every such chain link by link in order.

import (
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
)

// ringNode is one node's state in its layer's ring passes. rt and lt are
// its fire-time candidates in the rightward and the leftward pass; both
// start at its base. dl is the delay of its Left input's link and xl the
// arrival at the input paired with Left in the guard, or MaxTime where the
// Left input cannot complete that pair by a neighbour's firing (a stuck
// link or a faulty node); dr and xr are the same for Right.
type ringNode struct {
	rt, lt sim.Time
	dl, xl sim.Time
	dr, xr sim.Time
}

// ringPairs returns the roles g's guard pairs with the Left and with the
// Right input.
func ringPairs(g *grid.Graph) (left, right grid.Role) {
	for _, p := range g.GuardPairs() {
		for i, r := range p {
			switch r {
			case grid.RoleLeft:
				left = p[1-i]
			case grid.RoleRight:
				right = p[1-i]
			}
		}
	}
	return left, right
}

// sweep runs the firing level, layer by layer, and reports whether the
// run's context stopped it. It polls the context before each layer and
// every sim.DefaultStopCheckInterval nodes within one; a stopped sweep has
// counted the events of the nodes it settled so far.
func (nw *network) sweep() (stopped bool) {
	nw.firstWake, nw.lastArrival = sim.MaxTime, -1
	if nw.stopped() || nw.fireSources() {
		return true
	}
	for l := 1; l < nw.g.NumLayers(); l++ {
		if nw.stopped() || nw.settleLayer(nw.g.Layer(l)) {
			return true
		}
	}
	return false
}

// stopped polls the run's context.
func (nw *network) stopped() bool {
	return nw.cfg.Context != nil && nw.cfg.Context.Err() != nil
}

// pollDue reports whether the sweep polls the context before the c-th node
// of a layer.
func pollDue(c int) bool { return c > 0 && c%sim.DefaultStopCheckInterval == 0 }

// fireSources fires each correct source at its schedule time, counting its
// fire event, if that is at or before the horizon.
func (nw *network) fireSources() (stopped bool) {
	for c, id := range nw.g.Layer(0) {
		if pollDue(c) && nw.stopped() {
			return true
		}
		nw.fireAt[id] = sim.MaxTime
		if nw.cells[id].flags&nodeFaulty != 0 {
			continue
		}
		at := nw.cfg.Schedule.Times[0][c]
		nw.retire(at)
		if at <= nw.horizon {
			nw.fireAt[id] = at
			nw.drawDelays(id)
			nw.settle(id, at)
		}
	}
	return false
}

// settleLayer computes the fire times of the forwarding layer ids from the
// final fire times of the layer below and fires its nodes.
func (nw *network) settleLayer(ids []int) (stopped bool) {
	for c, id := range ids {
		if pollDue(c) && nw.stopped() {
			return true
		}
		if nw.cells[id].flags&nodeFaulty == 0 {
			nw.drawDelays(id)
		}
	}
	if len(ids) > len(nw.ring) {
		nw.ring = make([]ringNode, len(ids))
	}
	ring := nw.ring[:len(ids)]
	for c, id := range ids {
		nw.initRingNode(&ring[c], id)
	}

	// Rightward: node c's Left input comes from node c−1. The pass visits
	// nodes 1..w−1 and then 0..w−2, so a chain starting at any node's
	// base reaches each of its w−1 links in order.
	w := len(ring)
	t := ring[0].rt
	for _, lap := range [2][]ringNode{ring[1:], ring[:w-1]} {
		for i := range lap {
			n := &lap[i]
			if t != sim.MaxTime {
				n.rt = min(n.rt, max(t+n.dl, n.xl))
			}
			t = n.rt
		}
	}
	// Leftward: node c's Right input comes from node c+1; the pass visits
	// nodes w−2..0 and then w−1..1.
	t = ring[w-1].lt
	for _, lap := range [2][]ringNode{ring[:w-1], ring[1:]} {
		for i := len(lap) - 1; i >= 0; i-- {
			n := &lap[i]
			if t != sim.MaxTime {
				n.lt = min(n.lt, max(t+n.dr, n.xr))
			}
			t = n.lt
		}
	}

	for c, id := range ids {
		if pollDue(c) && nw.stopped() {
			return true
		}
		nw.fireAt[id] = sim.MaxTime
		if nw.cells[id].flags&nodeFaulty != 0 {
			continue
		}
		nw.retire(0) // its time-0 guard check
		if at := min(ring[c].rt, ring[c].lt); at <= nw.horizon {
			nw.fireAt[id] = at
			nw.settle(id, at)
		}
	}
	return false
}

// initRingNode sets n to node id's pass state: its base from the layer
// below's fire times and the delays drawn for its inputs. A faulty node
// never fires and helps no one.
func (nw *network) initRingNode(n *ringNode, id int) {
	*n = ringNode{rt: sim.MaxTime, lt: sim.MaxTime, xl: sim.MaxTime, xr: sim.MaxTime}
	if nw.cells[id].flags&nodeFaulty != 0 {
		return
	}
	// arr[r] is the arrival at the input of role r; a correct ring input
	// stays MaxTime here, its arrival being the passes' business.
	var arr [grid.NumRoles]sim.Time
	for r := range arr {
		arr[r] = sim.MaxTime
	}
	leftLive, rightLive := false, false
	in := nw.g.In(id)
	base := int(nw.inOff[id])
	for i := range in {
		bits := nw.inBits[base+i]
		r := roleOf(bits)
		switch modeOf(bits) {
		case fault.LinkStuck1:
			arr[r] = 0
		case fault.LinkCorrect:
			d := nw.inDelay[base+i]
			switch r {
			case grid.RoleLeft:
				n.dl, leftLive = d, true
			case grid.RoleRight:
				n.dr, rightLive = d, true
			default:
				if at := nw.fireAt[in[i].From]; at != sim.MaxTime {
					arr[r] = at + d
				}
			}
		}
	}
	for _, pair := range nw.g.GuardPairs() {
		n.rt = min(n.rt, max(arr[pair[0]], arr[pair[1]]))
	}
	n.lt = n.rt
	if leftLive {
		n.xl = arr[nw.leftPair]
	}
	if rightLive {
		n.xr = arr[nw.rightPair]
	}
}

// drawDelays draws node id's out-link delays as broadcast does, from
// counter 0 of its stream in Out(id) order, skipping links that are not
// correct, and stores each in the input slot the link drives. The send
// time is not known yet; the uniform delays firingApplies requires do not
// read it.
func (nw *network) drawDelays(id int) {
	nw.reseedScratch(id)
	for _, out := range nw.g.Out(id) {
		slot := int(nw.inOff[out.To]) + int(out.InIdx)
		if modeOf(nw.inBits[slot]) != fault.LinkCorrect {
			continue
		}
		d := nw.cfg.Delay.Delay(id, out.To, 0, &nw.scratch)
		if d < 0 {
			panic("core: delay model returned a negative delay")
		}
		nw.inDelay[slot] = d
	}
}

// settle records node id's firing at `at` and counts what the event level
// runs for it: a delivery or retirement per message and, for a forwarding
// node, its wake, drawn from counter 1 of its stream as checkFire draws
// it. It tracks the latest arrival at a correct forwarding node and the
// earliest wake for run's second-fire check.
func (nw *network) settle(id int, at sim.Time) {
	nw.triggers[id] = append(nw.triggers[id], at)
	for _, out := range nw.g.Out(id) {
		slot := int(nw.inOff[out.To]) + int(out.InIdx)
		if modeOf(nw.inBits[slot]) != fault.LinkCorrect {
			continue
		}
		arrival := at + nw.inDelay[slot]
		nw.retire(arrival)
		if arrival > nw.lastArrival && arrival <= nw.horizon &&
			nw.cells[out.To].flags&nodeFaulty == 0 {
			nw.lastArrival = arrival
		}
	}
	if nw.cells[id].flags&nodeSource != 0 {
		return
	}
	wake := at + nw.streamTimeIn(id, nw.cfg.Params.TSleepMin, nw.cfg.Params.TSleepMax)
	nw.retire(wake)
	nw.firstWake = min(nw.firstWake, wake)
}
