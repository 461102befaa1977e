package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/jobs"
	"repro/internal/service"
)

// nominalSeconds is the run length the per-rep op counts below are sized
// for: at it, one rep takes about four seconds on a 2-core host. A run of
// s seconds scales every count by s/nominalSeconds, so both sides of an
// A/B at the same --seconds do exactly the same simulated work.
const nominalSeconds = 20

// reps is the number of untraced reps per workload, each in a fresh child
// process.
const reps = 5

// scenarios are the four layer-0 scenarios every generated request cycles
// through, in the paper's order.
var scenarios = []string{"zero", "udminus", "udplus", "ramp"}

// workload is one traffic mix the benchmark drives through the serving
// stack. The reasons each exists are in BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	// l, w and output shape every request of the workload.
	l, w   int
	output string
	// clients is the number of closed-loop client goroutines; 0 marks the
	// in-process sweep workload, which has one submitting caller.
	clients int
	// ops is the timed op count per rep at nominalSeconds: HTTP requests,
	// or sweep units for campaign-agg.
	ops int
	// keys, when non-zero, is the size of the precomputed key set the timed
	// ops draw from uniformly (warm-hits).
	keys int
	// sweepUnits is the unit count of one sweep (campaign-agg).
	sweepUnits int
	// replay is how many timed ops the traced run replays stage by stage;
	// verify how many each untraced rep recomputes to check served bodies.
	replay, verify int
}

// workloads lists the four mixes in the order runs interleave them.
var workloads = []workload{
	{name: "cold-small", l: 20, w: 12, output: "stats", clients: 2, ops: 5000, replay: 256, verify: 16},
	{name: "warm-hits", l: 20, w: 12, output: "stats", clients: 2, ops: 80000, keys: 1024, replay: 4096, verify: 16},
	{name: "large-run", l: 300, w: 200, output: "stats", clients: 1, ops: 40, replay: 8, verify: 1},
	{name: "campaign-agg", l: 20, w: 12, output: "agg", ops: 30000, sweepUnits: 10000, replay: 512, verify: 16},
}

// campaignBatch is the Batch of every campaign-agg sweep.
const campaignBatch = 256

// maxSweepUnits is hexd's default -sweep-max-units.
const maxSweepUnits = 10000

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan is everything a child process needs to rebuild a workload's inputs
// and run one rep of it. It travels to the child as JSON.
type plan struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Ops is the timed op count of the rep (campaign-agg: units, a whole
	// number of sweeps).
	Ops        int `json:"ops"`
	Keys       int `json:"keys,omitempty"`
	SweepUnits int `json:"sweep_units,omitempty"`
	Replay     int `json:"replay"`
	Verify     int `json:"verify"`
}

// newPlan sizes one rep of w for a run of the given length.
func newPlan(w workload, seed uint64, seconds int) plan {
	p := plan{Workload: w.name, Seed: seed, Keys: w.keys, Replay: w.replay, Verify: w.verify}
	if w.sweepUnits > 0 {
		sweeps := max(1, (w.ops/w.sweepUnits*seconds+nominalSeconds/2)/nominalSeconds)
		p.SweepUnits = w.sweepUnits
		p.Ops = sweeps * w.sweepUnits
	} else {
		p.Ops = max(1, (w.ops*seconds+nominalSeconds/2)/nominalSeconds)
	}
	p.Replay = min(p.Replay, p.Ops)
	return p
}

// request is one generated /v1/run request: the JSON body a client sends,
// the request as the service normalizes it, and its canonical key.
type request struct {
	body []byte
	req  service.RunRequest
	key  string
}

// inputs are a rep's generated requests. setup and ops index reqs: setup
// runs untimed before the first timed op (it fills the grid cache and the
// arena pool, and for warm-hits the key set), ops are timed. The sweep
// workload runs a one-unit setup sweep, then its sweeps; reqs then lists
// the timed sweeps' units in decomposition order.
type inputs struct {
	reqs       []request
	setup, ops []int
	setupSweep jobs.SweepSpec
	sweeps     []jobs.SweepSpec
}

// serviceOpts are the admission limits requests are normalized against:
// hexd's defaults.
var serviceOpts = service.Options{}.Resolved()

// generate derives a rep's inputs from the plan alone, so every rep of a
// run, and every run with the same seed, sends the same requests.
func generate(p plan) (*inputs, error) {
	w, ok := workloadByName(p.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.Workload)
	}
	h := fnv.New64a()
	h.Write([]byte(p.Workload))
	rng := rand.New(rand.NewPCG(p.Seed, h.Sum64()))
	// Simulation seeds start at a random base so runs with different
	// --seed values share no work; the top bits stay clear so base plus
	// any op index never wraps.
	base := 1 + rng.Uint64()>>8
	in := &inputs{}

	if p.SweepUnits > 0 {
		per := p.SweepUnits / (len(scenarios) * 2)
		if per < 1 || per*len(scenarios)*2 != p.SweepUnits || p.Ops%p.SweepUnits != 0 {
			return nil, fmt.Errorf("sweep of %d units is not a multiple of %d", p.SweepUnits, len(scenarios)*2)
		}
		sweep := func(seedStart uint64, scs []string, faults []int, count int) jobs.SweepSpec {
			return jobs.SweepSpec{L: w.l, W: w.w, Scenarios: scs, Faults: faults,
				SeedStart: seedStart, SeedCount: count, Batch: campaignBatch,
				Output: w.output, Tenant: "hexbench"}
		}
		n := p.Ops / p.SweepUnits
		for k := 0; k < n; k++ {
			in.sweeps = append(in.sweeps, sweep(base+uint64(k*per), scenarios, []int{0, 1}, per))
		}
		in.setupSweep = sweep(base+uint64(n*per), scenarios[:1], []int{0}, 1)
		for _, sp := range in.sweeps {
			if err := sp.Normalize(maxSweepUnits); err != nil {
				return nil, err
			}
			units, err := sp.Decompose(serviceOpts)
			if err != nil {
				return nil, err
			}
			for _, u := range units {
				body, err := json.Marshal(u.Req)
				if err != nil {
					return nil, err
				}
				in.ops = append(in.ops, len(in.reqs))
				in.reqs = append(in.reqs, request{body: body, req: u.Req, key: u.Key})
			}
		}
		return in, nil
	}

	add := func(i int, seed uint64) error {
		rr := service.RunRequest{L: w.l, W: w.w, Scenario: scenarios[i%4],
			Faults: (i / 4) % 2, Seed: seed, Output: w.output}
		body, err := json.Marshal(rr)
		if err != nil {
			return err
		}
		if err := rr.Normalize(serviceOpts); err != nil {
			return err
		}
		in.reqs = append(in.reqs, request{body: body, req: rr, key: rr.CanonicalKey()})
		return nil
	}
	if p.Keys > 0 {
		// warm-hits: the key set is filled during setup, then timed ops
		// draw from it uniformly.
		for k := 0; k < p.Keys; k++ {
			if err := add(k, base+uint64(k/8)); err != nil {
				return nil, err
			}
			in.setup = append(in.setup, k)
		}
		for i := 0; i < p.Ops; i++ {
			in.ops = append(in.ops, rng.IntN(p.Keys))
		}
		return in, nil
	}
	// Every timed op is new work; the setup op uses the next seed.
	for i := 0; i <= p.Ops; i++ {
		if err := add(i, base+uint64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < p.Ops; i++ {
		in.ops = append(in.ops, i)
	}
	in.setup = []int{p.Ops}
	return in, nil
}
