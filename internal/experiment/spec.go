// Package experiment defines the paper's evaluation scenarios and drives
// them: single-pulse skew statistics (Tables 1–2, Figs. 8–17), the
// self-stabilization experiments (Table 3, Figs. 18–19), the Section 5
// extensions (Figs. 20–21) and the clock-tree comparison behind the title
// claim. Multi-run experiments execute runs in parallel across goroutines;
// each run is an independent deterministic simulation keyed by (Spec, run
// index).
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/source"
)

// Spec describes a family of single-pulse runs.
type Spec struct {
	// L, W are the grid dimensions (defaults 50, 20, the paper's grid).
	L, W int
	// Bounds is the link delay interval (default delay.Paper).
	Bounds delay.Bounds
	// Scenario selects the layer-0 skews.
	Scenario source.Scenario
	// Faults is the number of faulty nodes, placed uniformly at random
	// under Condition 1.
	Faults int
	// FaultType is the failure mode of the faulty nodes (default
	// Byzantine when Faults > 0).
	FaultType fault.Behavior
	// Runs is the number of independent runs (default 250, as in the
	// paper).
	Runs int
	// Seed is the experiment master seed (default 1).
	Seed uint64
	// HexPlus runs on the augmented topology of Section 5 (two additional
	// lower in-neighbors per node) instead of the plain HEX grid.
	HexPlus bool
}

// WithDefaults fills unset fields with the paper's defaults.
func (s Spec) WithDefaults() Spec {
	if s.L == 0 {
		s.L = 50
	}
	if s.W == 0 {
		s.W = 20
	}
	if s.Bounds == (delay.Bounds{}) {
		s.Bounds = delay.Paper
	}
	if s.Runs == 0 {
		s.Runs = 250
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Faults > 0 && s.FaultType == fault.Correct {
		s.FaultType = fault.Byzantine
	}
	return s
}

// params returns the algorithm parameters of the spec's runs:
// core.DefaultParams over the spec's Bounds.
func (s Spec) params() core.Params {
	p := core.DefaultParams()
	p.Bounds = s.Bounds
	return p
}

// RunOut is the outcome of one single-pulse run.
type RunOut struct {
	Hex  *grid.Hex
	Plan *fault.Plan
	// Res is the compact result (core.Config.FirstTriggerOnly): its
	// FirstTriggers, Events and Horizon, with no trigger histories.
	Res  *core.Result
	Wave *analysis.Wave
	// Elapsed is the wall time of Pulse.Run: the simulation and the wave
	// reconstruction, excluding topology construction and fault
	// placement. Together with Res.Events it gives a per-run events/s
	// throughput; hexd aggregates these into its hexd_events_per_sec
	// gauge.
	Elapsed time.Duration
}

// runSeed derives the master seed of run idx of a spec.
func (s Spec) runSeed(idx int) uint64 {
	return sim.DeriveSeed(s.Seed,
		s.Scenario.Name(),
		fmt.Sprintf("L%d-W%d", s.L, s.W),
		fmt.Sprintf("f%d-%s", s.Faults, s.FaultType),
		fmt.Sprintf("run%d", idx))
}

// buildGrid returns the spec's topology from the process-wide grid cache
// (grid.Shared): a Graph is immutable after construction, so every run —
// across sweeps, service requests, and campaigns — that agrees on
// (topology, L, W) shares one grid, built once per process. The stable
// pointer also keys arena reuse across the whole process instead of one
// sweep.
func (s Spec) buildGrid() (*grid.Hex, error) {
	return grid.Shared.Build(s.L, s.W, s.HexPlus)
}

// RunOne executes run number idx of the spec.
func RunOne(s Spec, idx int) (*RunOut, error) {
	s = s.WithDefaults()
	h, err := s.buildGrid()
	if err != nil {
		return nil, err
	}
	return runOnGrid(context.Background(), s, h, idx)
}

func runOnGrid(ctx context.Context, s Spec, h *grid.Hex, idx int) (*RunOut, error) {
	p, err := NewPulse(h, s.params(), s.Scenario, s.Faults, s.FaultType, s.runSeed(idx))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// Per-run spans feed the request trace of a traced /v1/spec sweep;
	// outside a traced request the context carries no trace and AddSpan is
	// a no-op on the nil receiver. The span list is bounded, so very large
	// sweeps drop (and count) the excess rather than growing the trace.
	defer func() {
		obs.FromContext(ctx).AddSpan(fmt.Sprintf("run[%d]", idx), start, time.Now())
	}()
	res, wave, err := p.Run(ctx, nil, true)
	if err != nil {
		return nil, err
	}
	return &RunOut{Hex: h, Plan: p.Plan, Res: res, Wave: wave, Elapsed: time.Since(start)}, nil
}

// RunMany executes all runs of the spec across a worker pool and returns
// them in run-index order.
func RunMany(s Spec) ([]*RunOut, error) {
	return RunManyCtx(context.Background(), s)
}

// RunManyCtx is RunMany with cancellation: once ctx is done, no further
// runs start, in-flight simulations stop early, and the context's error
// is returned.
func RunManyCtx(ctx context.Context, s Spec) ([]*RunOut, error) {
	s = s.WithDefaults()
	// One grid serves every run: a Graph is immutable after construction,
	// so sharing it across workers is race-free, and it keys the arena
	// reuse (an arena re-slices its storage whenever the topology pointer
	// changes, so per-run grids would defeat the pool).
	endBuild := obs.FromContext(ctx).StartSpan("grid-build")
	h, err := s.buildGrid()
	endBuild()
	if err != nil {
		return nil, err
	}
	return runAll(ctx, s.Runs, func(idx int) (*RunOut, error) {
		return runOnGrid(ctx, s, h, idx)
	})
}

// runAll is the multi-run driver of RunManyCtx and StabRunManyCtx: it
// runs run(0..n-1) across min(GOMAXPROCS, n) workers, dispatching no new
// index once ctx is done, and returns the outputs in index order, the
// context's error, or else the lowest-index run's error.
func runAll[T any](ctx context.Context, n int, run func(idx int) (T, error)) ([]T, error) {
	outs := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				outs[idx], errs[idx] = run(idx)
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// CollectSkews gathers intra- and inter-layer skews (in ns) over all runs,
// after excluding the h-hop outgoing neighborhoods of faulty nodes.
func CollectSkews(outs []*RunOut, hops int) (intra, inter []float64) {
	for _, o := range outs {
		w := o.Wave
		if hops > 0 {
			w = cloneWave(w)
			w.ExcludeFaultyNeighborhood(o.Plan, hops)
		}
		intra = append(intra, w.IntraSkews()...)
		inter = append(inter, w.InterSkews()...)
	}
	return intra, inter
}

// cloneWave copies a wave so exclusions don't mutate the original.
func cloneWave(w *analysis.Wave) *analysis.Wave {
	c := analysis.NewWave(w.G)
	copy(c.T, w.T)
	copy(c.Excluded, w.Excluded)
	return c
}
