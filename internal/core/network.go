package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
)

// Config fully describes one simulation run. Given equal Configs (including
// Seed), Run produces identical Results.
type Config struct {
	// Graph is the communication topology. Layer 0 nodes act as clock
	// sources; higher layers run the HEX forwarding algorithm.
	Graph *grid.Graph
	// Params are the algorithm parameters.
	Params Params
	// Delay assigns per-message link delays. Required.
	Delay delay.Model
	// Faults is the fault plan; nil means fault-free.
	Faults *fault.Plan
	// Schedule provides the layer-0 triggering times; Times[k][c] refers to
	// the c-th node of Graph.Layer(0). Required.
	Schedule *source.Schedule
	// RandomInit starts every correct forwarding node in an arbitrary
	// state of the Fig. 7 state machines (for self-stabilization runs).
	RandomInit bool
	// Seed drives all randomness (delays, timers, initial states). Fault
	// placement/behaviour randomness lives in the fault plan, which is
	// built by the caller before the run.
	Seed uint64
	// Horizon stops the simulation; 0 derives a horizon that lets the last
	// pulse traverse the grid with ample slack.
	Horizon sim.Time
	// Context, if non-nil, makes the run cancellable: the run polls it
	// every few hundred events (or nodes, at the firing level) and stops
	// early once the context is done.
	// Run then returns the partial Result (triggers and event counts up to
	// the stop point) together with the context's error, so callers can
	// still observe how much work was done. A run that completes before
	// cancellation is bit-identical to one without a Context.
	Context context.Context
	// FirstTriggerOnly selects the compact result shape for campaign
	// workloads that only need single-pulse statistics: the Result carries
	// FirstTriggers (one flat slice, node n's first triggering time or
	// NoTrigger) instead of the full per-node Triggers histories, cutting
	// the snapshot from one slice header per node to a single allocation.
	// The simulation itself is untouched — FirstTriggers[n] equals
	// Triggers[n][0] of the same Config bit-for-bit (pinned by a
	// differential test) — so this is an output-shape knob, not part of a
	// run's identity.
	FirstTriggerOnly bool
	// Trace, if non-nil, observes all internal events (sends, deliveries,
	// flag expiries, fires, sleep/wake transitions).
	Trace Tracer
}

// NoTrigger marks a node without a triggering time in a FirstTriggers
// slice. Its value equals analysis.Missing, so compact results flow into
// wave statistics without translation.
const NoTrigger sim.Time = math.MinInt64

// Result holds the observables of one run. A Result owns its memory: it
// never aliases arena storage, so it stays valid after the arena that
// produced it is reused for another run.
type Result struct {
	// Triggers[n] lists the triggering times of node n in increasing
	// order. Faulty nodes never trigger (their outputs are stuck and their
	// times are excluded from all statistics, as in the paper). Nil when
	// the run was configured FirstTriggerOnly.
	Triggers [][]sim.Time
	// FirstTriggers[n] is node n's first triggering time, or NoTrigger.
	// Populated instead of Triggers when Config.FirstTriggerOnly is set.
	FirstTriggers []sim.Time
	// Events is the number of simulation events executed or retired: the
	// core files no event whose outcome is decided when it would be
	// scheduled, and counts it here instead (DESIGN §11, "Dead events").
	// A run at the firing level counts the events the event level would
	// have executed or retired (DESIGN §11, "Ring sweep").
	Events uint64
	// Horizon is the (possibly derived) end of simulated time.
	Horizon sim.Time
}

// Typed event kinds dispatched through the sim engine (no per-event
// closure allocations on the hot path).
const (
	evSourceFire uint8 = iota // a = node
	evCheck                   // a = node
	evDeliver                 // a = from, b = to | inIdx<<32
	evExpire                  // a = node, b = idx | gen<<32
	evWake                    // a = node, b = gen
)

// network binds a Config to its execution state and is the engine's
// sim.Dispatcher. Its storage (the SoA node and input slabs of soa.go, the
// seq/draw counter slabs, trigger accumulators, engine queue) survives
// across runs when driven through an Arena; initState re-initializes every
// field, so a reused network is observationally identical to a fresh one.
//
// Event keys and random draws come from per-node counters: they depend
// only on the producing node's own history, never on the global order in
// which nodes happen to be processed. The golden outputs pin the exact
// keys and draws this scheme yields, so it must stay bit-for-bit as is.
type network struct {
	cfg Config
	eng sim.Engine
	g   *grid.Graph
	// Structure-of-arrays simulation state; see soa.go for the layout.
	cells    []nodeCell
	wakeGen  []uint32
	wakeAt   []sim.Time // a sleeping node's wake time
	inOff    []int32
	inBits   []uint8
	inGen    []uint32
	triggers [][]sim.Time // arena-owned accumulators, snapshot into Result
	// seqCtr[n] counts events produced by node n; an event's queue key is
	// seqCtr<<seqShift | producer, unique and independent of partitioning.
	seqCtr   []uint64
	seqShift uint
	// rngCtr[n] counts node n's random-draw sites; each site derives its
	// values from (drawSeed, n, rngCtr[n]) so draws are partition-stable.
	rngCtr   []uint64
	drawSeed uint64
	// lastGraph remembers which topology the slabs are sized for; a run on
	// a different *grid.Graph re-slices from scratch.
	lastGraph *grid.Graph
	// scratch is reseeded from the producing node's counter stream at each
	// multi-draw site (broadcast); single draws use streamTimeIn directly.
	scratch sim.RNG

	// Dead events (DESIGN §11): horizon is the run's end, retired counts
	// the events Result.Events includes that the engine never executed,
	// and pendingWakes the sleep timers in the queue. Deliveries are
	// retired only when retireDead holds, those to a sleeping receiver
	// only when sleepDead holds too, and the trailing wakes only when
	// retireWakes holds.
	horizon      sim.Time
	retired      uint64
	pendingWakes int
	retireDead   bool
	sleepDead    bool
	retireWakes  bool

	// Firing level (DESIGN §11, "Ring sweep"; sweep.go): firing selects it
	// for the current run, inDelay[slot] is the delay drawn for each
	// correct input's link, fireAt[id] each node's fire time (MaxTime if
	// it does not fire) and ring the current layer's pass state, grown to
	// the widest layer settled so far. leftPair and rightPair are the roles
	// the guard pairs with the Left and the Right input. firstWake is the
	// earliest wake of a fired forwarding node and lastArrival the latest
	// arrival at a correct forwarding node up to the horizon; a node could
	// have fired twice only if firstWake <= lastArrival.
	firing      bool
	inDelay     []sim.Time
	fireAt      []sim.Time
	ring        []ringNode
	leftPair    grid.Role
	rightPair   grid.Role
	firstWake   sim.Time
	lastArrival sim.Time

	// Test arms of the engine differential, set only by package tests:
	// every event through the 4-ary heap instead of the near ring and far
	// lane, every event filed and executed, dead or not, and the event
	// level where the firing level would apply. Each must reproduce every
	// Result of the production path bit for bit; the first two also imply
	// the event level.
	heapQueue, executeAll, eventLevel bool
}

// Dispatch implements sim.Dispatcher. Once only sleep timers are pending
// and no wake can fire, it retires them and ends the run.
func (nw *network) Dispatch(kind uint8, a, b int64) {
	switch kind {
	case evSourceFire:
		nw.fireSource(int(a))
	case evCheck:
		nw.checkFire(int(a))
	case evDeliver:
		nw.deliver(int(a), int(uint32(b)), int(b>>32))
	case evExpire:
		nw.expireFlag(int(a), int(uint32(b)), uint32(b>>32))
	case evWake:
		nw.wake(int(a), uint32(b))
	default:
		panic("core: unknown event kind")
	}
	if nw.retireWakes && nw.pendingWakes == nw.eng.Pending() {
		nw.retireTrailingWakes()
	}
}

// retireTrailingWakes counts the pending sleep timers that Run would still
// have executed and stops the engine; the next Reset drops them from the
// queue. A node files a wake only when it fires, and fires only while
// awake, so each sleeping node has exactly one wake pending, at wakeAt.
func (nw *network) retireTrailingWakes() {
	for id := range nw.cells {
		if nw.cells[id].flags&nodeSleeping != 0 {
			nw.retire(nw.wakeAt[id])
		}
	}
	nw.eng.Stop()
}

// run executes the simulation described by cfg and returns its result.
func (nw *network) run(cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: Config.Graph is required")
	}
	if cfg.Delay == nil {
		return nil, fmt.Errorf("core: Config.Delay is required")
	}
	if cfg.Schedule == nil || cfg.Schedule.Pulses() == 0 {
		return nil, fmt.Errorf("core: Config.Schedule with at least one pulse is required")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Schedule.Times[0]) != len(cfg.Graph.Layer(0)) {
		return nil, fmt.Errorf("core: schedule width %d does not match layer-0 width %d",
			len(cfg.Schedule.Times[0]), len(cfg.Graph.Layer(0)))
	}

	nw.cfg = cfg
	nw.g = cfg.Graph
	nw.drawSeed = sim.DeriveSeed(cfg.Seed, "draw")
	if ctx := cfg.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			nw.release()
			return emptyResult(cfg), err
		}
	}
	nw.horizon = cfg.Horizon
	if nw.horizon == 0 {
		nw.horizon = nw.autoHorizon()
	}
	stuckFires := nw.initState()
	nw.firing = nw.firingApplies() && !stuckFires
	interrupted := false
	if nw.firing {
		interrupted = nw.sweep()
		if !interrupted && nw.lastArrival >= nw.firstWake {
			// A message reached a node at or after some fired node's wake, so a
			// node may have fired twice, which only the event level follows.
			nw.firing = false
			nw.initState()
		}
	}
	if !nw.firing {
		nw.arm()
		nw.fileEvents(stuckFires)
		nw.eng.Run(nw.horizon)
		interrupted = nw.eng.Interrupted()
	}
	res := &Result{Events: nw.retired, Horizon: nw.horizon}
	if !nw.firing {
		res.Events += nw.eng.Executed
	}
	if cfg.FirstTriggerOnly {
		res.FirstTriggers = nw.snapshotFirstTriggers()
	} else {
		res.Triggers = nw.snapshotTriggers()
	}
	nw.release()
	if interrupted {
		return res, cfg.Context.Err()
	}
	return res, nil
}

// arm resets the engine and installs the run's queue, dispatcher and
// cancellation poll for a run at the event level.
func (nw *network) arm() {
	nw.eng.Reset()
	nw.eng.UseHeapQueue(nw.heapQueue)
	nw.eng.SetHorizonHint(nw.cfg.Params.MaxEventDelta())
	nw.eng.SetDispatcher(nw)
	if ctx := nw.cfg.Context; ctx != nil {
		nw.eng.SetStopCheck(0, func() bool { return ctx.Err() != nil })
	}
}

// firingApplies reports whether the firing level reproduces the run
// exactly as far as the Config tells: a single untraced pulse from a clean
// start, flags that never expire, Algorithm 1's guard and uniform delays,
// with no test arm set. run adds that no node's stuck-at-1 inputs alone
// satisfy its guard, and falls back to the event level if a node could
// have fired twice.
func (nw *network) firingApplies() bool {
	c := &nw.cfg
	_, uniform := c.Delay.(delay.Uniform)
	return c.Trace == nil && c.Schedule.Pulses() == 1 && !c.RandomInit &&
		!c.Params.LinkTimersEnabled() && c.Params.Guard == GuardAdjacent && uniform &&
		!nw.eventLevel && !nw.heapQueue && !nw.executeAll
}

// release drops the per-run references the arena must not retain between
// runs (context, callbacks, delay model, fault plan). The sized storage
// stays for the next run.
func (nw *network) release() {
	nw.cfg = Config{}
	nw.eng.SetStopCheck(0, nil)
}

// snapshotTriggers copies the arena's trigger accumulators into compact,
// caller-owned storage: one flat array plus one header slice, regardless
// of node count. Nodes that never triggered keep a nil history, matching
// the pre-arena behavior.
func (nw *network) snapshotTriggers() [][]sim.Time {
	total := 0
	for _, ts := range nw.triggers {
		total += len(ts)
	}
	out := make([][]sim.Time, len(nw.triggers))
	if total == 0 {
		return out
	}
	flat := make([]sim.Time, total)
	pos := 0
	for i, ts := range nw.triggers {
		if len(ts) == 0 {
			continue
		}
		n := copy(flat[pos:], ts)
		out[i] = flat[pos : pos+n : pos+n]
		pos += n
	}
	return out
}

// snapshotFirstTriggers copies each node's first triggering time into one
// flat caller-owned slice — the FirstTriggerOnly result shape. For a
// single-pulse campaign run this replaces the per-node history headers of
// snapshotTriggers with a single allocation.
func (nw *network) snapshotFirstTriggers() []sim.Time {
	out := make([]sim.Time, len(nw.triggers))
	for i, ts := range nw.triggers {
		if len(ts) == 0 {
			out[i] = NoTrigger
		} else {
			out[i] = ts[0]
		}
	}
	return out
}

// emptyResult is the zero-work Result of a run cancelled before it
// started, in the shape the Config asked for.
func emptyResult(cfg Config) *Result {
	n := cfg.Graph.NumNodes()
	if cfg.FirstTriggerOnly {
		ft := make([]sim.Time, n)
		for i := range ft {
			ft[i] = NoTrigger
		}
		return &Result{FirstTriggers: ft}
	}
	return &Result{Triggers: make([][]sim.Time, n)}
}

// autoHorizon derives a stop time covering the last pulse's full traversal,
// including the fault-induced slowdown of Lemma 5 and pending timers.
func (nw *network) autoHorizon() sim.Time {
	p := nw.cfg.Params
	f := sim.Time(nw.cfg.Faults.NumFaulty())
	layers := sim.Time(nw.g.NumLayers())
	slack := (layers + f + 5) * p.Bounds.Max
	return nw.cfg.Schedule.End() + slack + p.TSleepMax + p.TLinkMax
}

// nextSeq allocates node's next event key: the node's event counter
// striped over the node id. Keys are unique across the run (counter·2^seqShift
// + id is injective) and depend only on the producing node's history; the
// (at, seq) order they induce is the event order the golden outputs pin.
func (nw *network) nextSeq(node int) uint64 {
	s := nw.seqCtr[node]
	nw.seqCtr[node] = s + 1
	return s<<nw.seqShift | uint64(node)
}

// streamTimeIn draws a uniform Time in [lo, hi] from node's counter
// stream: one DeriveStream call, no RNG state. The modulo bias over a
// 64-bit stream value is < 2^-50 for every span this simulator uses. Used
// by the single-draw sites (link and sleep timers); multi-draw sites
// reseed the scratch RNG instead.
func (nw *network) streamTimeIn(node int, lo, hi sim.Time) sim.Time {
	v := sim.DeriveStream(nw.drawSeed, uint64(node), nw.rngCtr[node])
	nw.rngCtr[node]++
	return lo + sim.Time(v%uint64(hi-lo+1))
}

// reseedScratch points the scratch RNG at the producing node's next
// counter-stream value; subsequent draws consume the scratch stream
// sequentially. One counter tick covers the whole multi-draw site.
func (nw *network) reseedScratch(node int) {
	nw.scratch.Reseed(sim.DeriveStream(nw.drawSeed, uint64(node), nw.rngCtr[node]))
	nw.rngCtr[node]++
}

// initState initializes the state slabs and the static stuck-at-1 inputs,
// the part of a run both levels share. It reports whether some correct
// forwarding node's stuck-at-1 inputs alone satisfy its guard, so that
// every wake of that node fires it again. On a reused network it
// re-initializes every slab entry of the retained storage instead of
// allocating; only a topology change (different *grid.Graph) re-slices.
func (nw *network) initState() (stuckFires bool) {
	g := nw.g
	n := g.NumNodes()
	plan := nw.cfg.Faults

	if nw.lastGraph != g {
		nw.cells = make([]nodeCell, n)
		nw.wakeGen = make([]uint32, n)
		nw.wakeAt = make([]sim.Time, n)
		nw.fireAt = make([]sim.Time, n)
		nw.inOff = make([]int32, n+1)
		totalIn := 0
		for id := 0; id < n; id++ {
			nw.inOff[id] = int32(totalIn)
			totalIn += len(g.In(id))
		}
		nw.inOff[n] = int32(totalIn)
		nw.inBits = make([]uint8, totalIn)
		nw.inGen = make([]uint32, totalIn)
		nw.inDelay = make([]sim.Time, totalIn)
		nw.leftPair, nw.rightPair = ringPairs(g)
		nw.triggers = make([][]sim.Time, n)
		nw.seqCtr = make([]uint64, n)
		nw.rngCtr = make([]uint64, n)
		nw.lastGraph = g
	}
	nw.seqShift = uint(bits.Len(uint(n - 1)))
	nw.retired = 0
	nw.pendingWakes = 0

	for id := 0; id < n; id++ {
		cell := &nw.cells[id]
		*cell = nodeCell{}
		nw.wakeGen[id] = 0
		nw.wakeAt[id] = 0
		nw.seqCtr[id] = 0
		nw.rngCtr[id] = 0
		if plan.IsFaulty(id) {
			cell.flags |= nodeFaulty
		}
		if g.LayerOf(id) == 0 {
			cell.flags |= nodeSource
		}
		links := g.In(id)
		base := int(nw.inOff[id])
		stuck := false
		for i := range links {
			mode := plan.Link(links[i].From, id)
			bits := inputBits(mode, links[i].Role)
			if mode == fault.LinkStuck1 {
				bits |= inSetBit // permanently high input
				cell.roleCnt[links[i].Role]++
				stuck = true
			}
			nw.inBits[base+i] = bits
			nw.inGen[base+i] = 0
		}
		if stuck && cell.flags == 0 && nw.guardSatisfied(id) {
			stuckFires = true
		}
		nw.triggers[id] = nw.triggers[id][:0]
	}
	return stuckFires
}

// fileEvents files the event level's first events: the layer-0 schedule,
// random initial states and the time-0 guard checks. It also decides
// which dead events the run retires.
func (nw *network) fileEvents(stuckFires bool) {
	// A tracer sees every delivery and wake, so a traced run files and
	// executes all of them; untraced, they show only through the state.
	nw.retireDead = nw.cfg.Trace == nil && !nw.executeAll
	nw.sleepDead = !nw.cfg.Params.LinkTimersEnabled()
	nw.retireWakes = nw.retireDead && !stuckFires

	// Layer-0 pulse generation.
	layer0 := nw.g.Layer(0)
	for k := range nw.cfg.Schedule.Times {
		for c, at := range nw.cfg.Schedule.Times[k] {
			id := layer0[c]
			if nw.cells[id].flags&nodeFaulty != 0 {
				continue
			}
			nw.eng.ScheduleEventKeyed(at, nw.nextSeq(id), evSourceFire, int64(id), 0)
		}
	}

	// Initial states of forwarding nodes.
	for id := range nw.cells {
		if nw.cells[id].flags&(nodeSource|nodeFaulty) != 0 {
			continue
		}
		if nw.cfg.RandomInit {
			nw.randomizeState(id)
		}
		// Evaluate the guard at time 0: stuck-at-1 inputs or arbitrary
		// initial flags may already satisfy it. A check that cannot fire
		// the node is retired, not filed: until time 0's events run, only
		// deliveries and wakes can satisfy the guard, and both call
		// checkFire themselves.
		seq := nw.nextSeq(id)
		if nw.executeAll || nw.cells[id].flags == 0 && nw.guardSatisfied(id) {
			nw.eng.ScheduleEventKeyed(0, seq, evCheck, int64(id), 0)
		} else {
			nw.retire(0)
		}
	}
}

// retire counts an event due at `at` that is not filed because its outcome
// is already decided: Run would have executed it if at lies at or before
// the horizon. The firing level counts every event Result.Events includes
// here, each as the event level would have run it.
func (nw *network) retire(at sim.Time) {
	if at <= nw.horizon {
		nw.retired++
	}
}

// scheduleWake files node id's sleep timer for its current generation and
// records the wake time that deadOnArrival reads.
func (nw *network) scheduleWake(id int, at sim.Time, seq uint64) {
	nw.wakeAt[id] = at
	nw.pendingWakes++
	nw.eng.ScheduleEventKeyed(at, seq, evWake, int64(id), int64(nw.wakeGen[id]))
}

// randomizeState puts node id into an arbitrary state of the Fig. 7 state
// machines: either asleep with an arbitrary residual sleep time, or awake
// with arbitrary memory flags carrying arbitrary residual link timers. It
// runs while fileEvents files the first events but draws from node id's
// counter stream, so the state is independent of node enumeration order.
func (nw *network) randomizeState(id int) {
	p := nw.cfg.Params
	var rng sim.RNG
	rng.Reseed(sim.DeriveStream(nw.drawSeed, uint64(id), nw.rngCtr[id]))
	nw.rngCtr[id]++
	if rng.Bool() {
		nw.cells[id].flags |= nodeSleeping
		nw.scheduleWake(id, rng.TimeIn(0, p.TSleepMax), nw.nextSeq(id))
		// The flags may additionally hold arbitrary values; they will be
		// cleared on wake-up anyway, but can matter if timers expire first.
	}
	lo, hi := int(nw.inOff[id]), int(nw.inOff[id+1])
	for slot := lo; slot < hi; slot++ {
		if modeOf(nw.inBits[slot]) != fault.LinkCorrect {
			continue
		}
		if !rng.Bool() {
			continue
		}
		nw.setFlag(id, slot)
		if p.LinkTimersEnabled() {
			residual := rng.TimeIn(0, p.TLinkMax)
			nw.eng.ScheduleEventKeyed(residual, nw.nextSeq(id), evExpire,
				int64(id), int64(slot-lo)|int64(nw.inGen[slot])<<32)
		}
	}
}

// setFlag sets input slot's memory flag and maintains node id's role
// counters. The flag must currently be clear.
func (nw *network) setFlag(id, slot int) {
	bits := nw.inBits[slot]
	nw.inBits[slot] = bits | inSetBit
	if modeOf(bits) != fault.LinkStuck0 {
		nw.cells[id].roleCnt[roleOf(bits)]++
	}
}

// clearFlag clears input slot's memory flag and maintains node id's role
// counters. The flag must currently be set.
func (nw *network) clearFlag(id, slot int) {
	bits := nw.inBits[slot]
	nw.inBits[slot] = bits &^ inSetBit
	if modeOf(bits) != fault.LinkStuck0 {
		nw.cells[id].roleCnt[roleOf(bits)]--
	}
}

// fireSource makes a layer-0 node emit a pulse.
func (nw *network) fireSource(id int) {
	nw.recordTrigger(id, true)
	nw.broadcast(id)
}

// broadcast sends trigger messages over all of id's outgoing links. The
// per-link delay draws consume id's scratch stream in out-link order, and
// each delivery is keyed from id's event counter. A link's fault mode is
// read from the receiver's input byte, where initState wrote it. A delivery
// that is dead when sent still draws its delay and its key, so no other
// event moves.
func (nw *network) broadcast(id int) {
	now := nw.eng.Now()
	nw.reseedScratch(id)
	for _, out := range nw.g.Out(id) {
		if modeOf(nw.inBits[int(nw.inOff[out.To])+int(out.InIdx)]) != fault.LinkCorrect {
			// Stuck links never carry discrete messages; stuck-at-1 is
			// modelled as a permanently set input at the receiver.
			continue
		}
		d := nw.cfg.Delay.Delay(id, out.To, now, &nw.scratch)
		if d < 0 {
			panic("core: delay model returned a negative delay")
		}
		seq := nw.nextSeq(id)
		if nw.retireDead && nw.deadOnArrival(out.To, now+d) {
			nw.retire(now + d)
			continue
		}
		if nw.cfg.Trace != nil {
			nw.cfg.Trace.Send(id, out.To, now, now+d)
		}
		nw.eng.ScheduleEventKeyed(now+d, seq, evDeliver,
			int64(id), int64(out.To)|int64(out.InIdx)<<32)
	}
}

// deadOnArrival reports whether a message reaching `to` at `at` would
// change nothing: the receiver refuses every message (faulty or a source),
// or it sleeps past `at` with link timers off, so the flag the message sets
// is cleared by the wake before anything but a no-op checkFire reads it.
func (nw *network) deadOnArrival(to int, at sim.Time) bool {
	f := nw.cells[to].flags
	if f == 0 {
		return false
	}
	if f&(nodeFaulty|nodeSource) != 0 {
		return true
	}
	return nw.sleepDead && nw.wakeAt[to] > at
}

// deliver processes the arrival of a trigger message from `from` at `to`
// (the "upon receiving trigger message from neighbor" rule of Algorithm 1).
// idx is the precomputed index of the input the message drives (the
// reverse-edge index carried by the event payload).
func (nw *network) deliver(from, to, idx int) {
	accepted := nw.deliverAccept(to, idx)
	if nw.cfg.Trace != nil {
		nw.cfg.Trace.Deliver(from, to, nw.eng.Now(), accepted)
	}
	if accepted {
		nw.checkFire(to)
	}
}

// deliverAccept updates the receiver's flag state and reports whether the
// message was memorized. The fast path reads one nodeCell byte and one
// input byte: a correct, clear input has both mode bits and the set bit at
// zero, so eligibility is a single mask test.
func (nw *network) deliverAccept(to, idx int) bool {
	if nw.cells[to].flags&(nodeFaulty|nodeSource) != 0 {
		return false
	}
	slot := int(nw.inOff[to]) + idx
	bits := nw.inBits[slot]
	if bits&(inModeMask|inSetBit) != 0 {
		// Either a non-correct link, or the Fig. 7b flag machine is already
		// in "memorize"; a further trigger neither restarts the timer nor
		// changes state.
		return false
	}
	nw.inBits[slot] = bits | inSetBit
	nw.cells[to].roleCnt[roleOf(bits)]++ // mode is LinkCorrect, counts
	gen := nw.inGen[slot] + 1
	nw.inGen[slot] = gen
	if nw.cfg.Params.LinkTimersEnabled() {
		dur := nw.streamTimeIn(to, nw.cfg.Params.TLinkMin, nw.cfg.Params.TLinkMax)
		nw.eng.ScheduleEventKeyed(nw.eng.Now()+dur, nw.nextSeq(to), evExpire,
			int64(to), int64(idx)|int64(gen)<<32)
	}
	return true
}

// expireFlag clears a memory flag when its link timer fires, unless the
// flag has been cleared and re-set since the timer started.
func (nw *network) expireFlag(id, idx int, gen uint32) {
	slot := int(nw.inOff[id]) + idx
	bits := nw.inBits[slot]
	if nw.inGen[slot] != gen || modeOf(bits) == fault.LinkStuck1 {
		return
	}
	if bits&inSetBit != 0 {
		nw.clearFlag(id, slot)
	}
	if nw.cfg.Trace != nil {
		nw.cfg.Trace.FlagExpire(id, idx, nw.eng.Now())
	}
}

// guardSatisfied evaluates the firing guard against the incrementally
// maintained per-role counters in the node's cell: O(guard pairs), no
// input rescan, one contiguous load.
func (nw *network) guardSatisfied(id int) bool {
	cnt := &nw.cells[id].roleCnt
	switch nw.cfg.Params.Guard {
	case GuardAdjacent:
		for _, pair := range nw.g.GuardPairs() {
			if cnt[pair[0]] > 0 && cnt[pair[1]] > 0 {
				return true
			}
		}
		return false
	case GuardAnyTwo:
		count := 0
		for _, c := range cnt {
			if c > 0 {
				count++
			}
		}
		return count >= 2
	default:
		panic("core: unknown guard mode")
	}
}

// checkFire triggers the node if it is awake and its guard holds
// (ready → firing → sleeping in Fig. 7a). Any set flag bit — sleeping,
// faulty, or source — disqualifies the node, so the not-ready test is one
// byte compare.
func (nw *network) checkFire(id int) {
	if nw.cells[id].flags != 0 {
		return
	}
	if !nw.guardSatisfied(id) {
		return
	}
	nw.recordTrigger(id, false)
	nw.broadcast(id)
	nw.cells[id].flags |= nodeSleeping
	nw.wakeGen[id]++
	if nw.cfg.Trace != nil {
		nw.cfg.Trace.Sleep(id, nw.eng.Now())
	}
	dur := nw.streamTimeIn(id, nw.cfg.Params.TSleepMin, nw.cfg.Params.TSleepMax)
	nw.scheduleWake(id, nw.eng.Now()+dur, nw.nextSeq(id))
}

// wake ends the sleep phase, forgetting all previously received trigger
// messages (the boxed flag-clearing transition of Fig. 7a). The flag sweep
// is a contiguous scan of the node's input bytes.
func (nw *network) wake(id int, gen uint32) {
	nw.pendingWakes--
	if nw.wakeGen[id] != gen {
		return
	}
	nw.cells[id].flags &^= nodeSleeping
	for slot := int(nw.inOff[id]); slot < int(nw.inOff[id+1]); slot++ {
		bits := nw.inBits[slot]
		if modeOf(bits) == fault.LinkStuck1 {
			continue // a constant-1 input re-sets its flag immediately
		}
		if bits&inSetBit != 0 {
			nw.clearFlag(id, slot)
		}
		nw.inGen[slot]++
	}
	if nw.cfg.Trace != nil {
		nw.cfg.Trace.Wake(id, nw.eng.Now())
	}
	nw.checkFire(id)
}

// recordTrigger appends the current time to the node's trigger history.
func (nw *network) recordTrigger(id int, isSource bool) {
	nw.triggers[id] = append(nw.triggers[id], nw.eng.Now())
	if nw.cfg.Trace != nil {
		nw.cfg.Trace.Fire(id, nw.eng.Now(), isSource)
	}
}
