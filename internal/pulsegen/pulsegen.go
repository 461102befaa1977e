// Package pulsegen implements the substrate the paper assumes at layer 0:
// a Byzantine fault-tolerant pulse generation algorithm over a fully
// connected network of clock sources. The paper delegates this role to
// DARTS [29,30] or FATAL+ [31] ("rather suitable candidates for the clock
// sources required by our HEX grid") and only requires that correct sources
// emit well-separated pulses with bounded skew.
//
// We implement Srikanth–Toueg-style pulse synchronization, simplified to
// the non-stabilizing steady-state case (FATAL's self-stabilization
// machinery is out of scope here, as it is in the paper):
//
//   - every source runs a local clock with drift at most ϑ; its timer for
//     pulse k+1 expires one nominal period P of local time after it
//     *accepted* pulse k;
//   - a source fires pulse k (emits it to the HEX grid and broadcasts
//     ⟨fire k⟩ to the other sources) when its timer expires or when it has
//     collected f+1 distinct ⟨fire k⟩ votes — at least one of them from a
//     correct source, so Byzantine sources alone can never cause a pulse;
//   - a source accepts pulse k, resynchronizing its clock, once it has
//     collected f+1 votes including its own.
//
// With at most f Byzantine sources among n ≥ 2f+1, all correct sources
// fire each pulse within one message delay of each other and the skew does
// not accumulate across pulses: acceptance is driven by the same set of
// broadcasts at every correct source. This provides exactly the
// "synchronized and well-separated initial trigger messages" Section 2
// postulates.
package pulsegen

import (
	"fmt"

	"repro/internal/delay"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/theory"
)

// Config parameterizes a source-network simulation.
type Config struct {
	// N is the number of sources (the HEX grid width W).
	N int
	// Faulty lists Byzantine source indices; the precision guarantee
	// needs N ≥ 2·|Faulty|+1.
	Faulty []int
	// Period is the nominal pulse period P (it must exceed the HEX pulse
	// separation S of Condition 2 plus the achieved source skew).
	Period sim.Time
	// Pulses is the number of pulses to generate.
	Pulses int
	// Bounds is the delay interval of the fully connected source links.
	Bounds delay.Bounds
	// Drift bounds each source's local clock rate error (ϑ).
	Drift theory.Drift
	// Seed drives clock rates, initial offsets and message delays.
	Seed uint64
	// ByzantineEager makes faulty sources broadcast ⟨fire k⟩ for every
	// pulse at time 0, trying to drag correct sources forward; otherwise
	// faulty sources are silent (the crash-like case).
	ByzantineEager bool
	// AssumedFaults is the resilience parameter f of the join threshold
	// f+1; 0 defaults to len(Faulty). Deployments would fix it to the
	// design margin ⌊(N−1)/2⌋ independent of the actual fault count.
	AssumedFaults int
}

// threshold returns the join/accept vote threshold f+1.
func (c Config) threshold() int {
	f := c.AssumedFaults
	if f == 0 {
		f = len(c.Faulty)
	}
	return f + 1
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 3 {
		return fmt.Errorf("pulsegen: need at least 3 sources, got %d", c.N)
	}
	f := c.AssumedFaults
	if f < len(c.Faulty) {
		f = len(c.Faulty)
	}
	if 2*f+1 > c.N {
		return fmt.Errorf("pulsegen: f = %d Byzantine sources exceed the f < n/2 bound for n = %d", f, c.N)
	}
	if c.AssumedFaults > 0 && len(c.Faulty) > c.AssumedFaults {
		return fmt.Errorf("pulsegen: %d actual faults exceed the assumed bound %d", len(c.Faulty), c.AssumedFaults)
	}
	if c.Period <= 0 || c.Pulses < 1 {
		return fmt.Errorf("pulsegen: need positive period and at least one pulse")
	}
	return c.Bounds.Validate()
}

// Missing marks a source that did not fire a pulse.
const Missing = sim.Time(-1)

// Result is the outcome of a source-network simulation.
type Result struct {
	// Times[k][i] is source i's firing time for pulse k, or Missing.
	Times [][]sim.Time
	// Skew[k] is the max difference between correct sources' pulse-k
	// firing times.
	Skew   []sim.Time
	faulty []bool
}

// node is one source's runtime state.
type node struct {
	faulty bool
	// rate is the local clock's real-time cost of one local time unit,
	// scaled by Drift.Den: a value of Drift.Num means the slowest clock.
	rate     int64
	fired    []bool
	accepted []bool
	votes    []map[int]bool
}

type network struct {
	cfg   Config
	eng   *sim.Engine
	rng   *sim.RNG
	rngD  *sim.RNG
	nodes []*node
	res   *Result
}

// Run simulates the source network.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nw := &network{
		cfg:  cfg,
		eng:  sim.NewEngine(),
		rng:  sim.NewRNG(sim.DeriveSeed(cfg.Seed, "pulsegen")),
		rngD: sim.NewRNG(sim.DeriveSeed(cfg.Seed, "pulsegen-delay")),
	}
	isFaulty := make([]bool, cfg.N)
	for _, i := range cfg.Faulty {
		if i < 0 || i >= cfg.N {
			return nil, fmt.Errorf("pulsegen: faulty index %d out of range", i)
		}
		isFaulty[i] = true
	}
	nw.res = &Result{
		Times:  make([][]sim.Time, cfg.Pulses),
		Skew:   make([]sim.Time, cfg.Pulses),
		faulty: isFaulty,
	}
	for k := range nw.res.Times {
		nw.res.Times[k] = make([]sim.Time, cfg.N)
		for i := range nw.res.Times[k] {
			nw.res.Times[k][i] = Missing
		}
	}
	nw.nodes = make([]*node, cfg.N)
	for i := range nw.nodes {
		nd := &node{
			faulty:   isFaulty[i],
			rate:     int64(nw.rng.TimeIn(sim.Time(cfg.Drift.Den), sim.Time(cfg.Drift.Num))),
			fired:    make([]bool, cfg.Pulses),
			accepted: make([]bool, cfg.Pulses),
			votes:    make([]map[int]bool, cfg.Pulses),
		}
		for k := range nd.votes {
			nd.votes[k] = make(map[int]bool)
		}
		nw.nodes[i] = nd
	}

	// Initial timers for pulse 0: steady-state assumption, sources start
	// within one message delay of each other.
	for i, nd := range nw.nodes {
		if nd.faulty {
			continue
		}
		i := i
		start := nw.rng.TimeIn(0, cfg.Bounds.Max)
		nw.eng.Schedule(start+nw.localDur(nd, cfg.Period), func() { nw.fire(i, 0) })
	}
	// Eager Byzantine sources spam votes for every pulse at time 0.
	if cfg.ByzantineEager {
		for _, i := range cfg.Faulty {
			for k := 0; k < cfg.Pulses; k++ {
				i, k := i, k
				nw.eng.Schedule(0, func() { nw.broadcast(i, k) })
			}
		}
	}

	nw.eng.RunAll()

	for k := 0; k < cfg.Pulses; k++ {
		lo, hi := sim.MaxTime, sim.Time(-1)
		for i, t := range nw.res.Times[k] {
			if isFaulty[i] {
				continue
			}
			if t == Missing {
				return nil, fmt.Errorf("pulsegen: correct source %d never fired pulse %d", i, k)
			}
			lo, hi = sim.MinTime(lo, t), sim.MaxOf(hi, t)
		}
		nw.res.Skew[k] = hi - lo
	}
	return nw.res, nil
}

// localDur converts a local-time span to real time for a node: a slow
// clock (rate > Den) stretches real time.
func (nw *network) localDur(nd *node, local sim.Time) sim.Time {
	return sim.Scale(local, nd.rate, nw.cfg.Drift.Den)
}

// fire emits pulse k at source i: record, broadcast, and count the node's
// own vote toward acceptance.
func (nw *network) fire(i, k int) {
	nd := nw.nodes[i]
	if nd.faulty || nd.fired[k] {
		return
	}
	nd.fired[k] = true
	nw.res.Times[k][i] = nw.eng.Now()
	nw.broadcast(i, k)
	nw.vote(i, i, k)
}

// broadcast sends ⟨fire k⟩ from i to every other source.
func (nw *network) broadcast(i, k int) {
	for j := 0; j < nw.cfg.N; j++ {
		if j == i {
			continue
		}
		j := j
		d := nw.rngD.TimeIn(nw.cfg.Bounds.Min, nw.cfg.Bounds.Max)
		nw.eng.Schedule(nw.eng.Now()+d, func() { nw.vote(j, i, k) })
	}
}

// vote records a ⟨fire k⟩ vote from `from` at node i. f+1 distinct votes
// make the node fire (join) and accept; acceptance resynchronizes the
// local clock: the timer for pulse k+1 starts here.
func (nw *network) vote(i, from, k int) {
	nd := nw.nodes[i]
	if nd.faulty || nd.accepted[k] {
		return
	}
	nd.votes[k][from] = true
	if len(nd.votes[k]) < nw.cfg.threshold() {
		return
	}
	nd.accepted[k] = true
	nw.fire(i, k) // join if the own timer has not expired yet
	if k+1 < nw.cfg.Pulses {
		i := i
		nw.eng.Schedule(nw.eng.Now()+nw.localDur(nd, nw.cfg.Period), func() { nw.fire(i, k+1) })
	}
}

// Schedule converts the result into a layer-0 schedule for core.Run.
// Faulty sources keep their slots, filled with source.Silent; the HEX fault
// plan must mark them faulty so core ignores them.
func (r *Result) Schedule() *source.Schedule {
	times := make([][]sim.Time, len(r.Times))
	for k := range r.Times {
		times[k] = make([]sim.Time, len(r.Times[k]))
		for i, t := range r.Times[k] {
			if t == Missing {
				times[k][i] = source.Silent
			} else {
				times[k][i] = t
			}
		}
	}
	return &source.Schedule{Times: times}
}

// MaxSkew returns the largest per-pulse skew between correct sources.
func (r *Result) MaxSkew() sim.Time {
	var m sim.Time
	for _, s := range r.Skew {
		if s > m {
			m = s
		}
	}
	return m
}

// MinSeparation returns the smallest separation between consecutive pulses
// at any correct source.
func (r *Result) MinSeparation() sim.Time {
	min := sim.MaxTime
	for k := 1; k < len(r.Times); k++ {
		for i := range r.Times[k] {
			if r.faulty != nil && r.faulty[i] {
				continue
			}
			a, b := r.Times[k-1][i], r.Times[k][i]
			if a == Missing || b == Missing {
				continue
			}
			if b-a < min {
				min = b - a
			}
		}
	}
	return min
}
