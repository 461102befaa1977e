package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trace"
)

// aggregateContentType labels HXA1 aggregate bodies; clients decode them
// with store.DecodeAggregate.
const aggregateContentType = "application/vnd.hex.aggregate"

// flightTracer adapts a possibly-nil recorder to core.Config.Trace without
// wrapping a nil pointer in a non-nil interface. It is a variable so a test
// can pause an armed run mid-simulation.
var flightTracer = func(fr *obs.FlightRecorder) core.Tracer {
	if fr == nil {
		return nil
	}
	return fr
}

// RunRequest is the body of POST /v1/run: one single-pulse simulation.
type RunRequest struct {
	// L, W are the grid dimensions (defaults 50, 20).
	L int `json:"l,omitempty"`
	W int `json:"w,omitempty"`
	// Scenario is a layer-0 skew scenario name accepted by source.Parse
	// ("zero"/"i", "udminus"/"ii", "udplus"/"iii", "ramp"/"iv"; default
	// "zero"). Aliases canonicalize to the same cache key.
	Scenario string `json:"scenario,omitempty"`
	// Faults places this many random faulty nodes under Condition 1.
	Faults int `json:"faults,omitempty"`
	// FaultType is "byzantine" (default when Faults > 0) or "fail-silent".
	FaultType string `json:"fault_type,omitempty"`
	// Seed drives all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// HexPlus selects the Section 5 augmented topology.
	HexPlus bool `json:"hex_plus,omitempty"`
	// Output is "stats" (JSON, default), "csv" (wave CSV), "svg" (wave
	// heat map), or "agg" (binary HXA1 aggregate record: skew summaries,
	// event count, and elapsed time only — the campaign mode that skips
	// the full per-node trigger snapshot).
	Output string `json:"output,omitempty"`
	// TimeoutMs is the per-request deadline in milliseconds; 0 uses the
	// server default, larger values are clamped to the server maximum.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`

	// Resolved by normalize; excluded from JSON and from the cache key
	// string (the parsed values are what the key uses).
	scenario source.Scenario `json:"-"`
	behavior fault.Behavior  `json:"-"`
	// flightArm, set by the HTTP layer from ?trace=1, arms the sim flight
	// recorder for this computation. Deliberately excluded from the cache
	// key: a traced request whose result is already cached (or in flight
	// under an unarmed leader) replays that result without a dump — the
	// trace's notes say which path it took.
	flightArm bool `json:"-"`
}

// Normalize fills defaults and parses enum fields; it must be called
// before CanonicalKey or compute. It is exported for the cluster router,
// which canonicalizes requests the same way before hashing them to a
// shard.
func (r *RunRequest) Normalize(opts Options) error {
	if r.L == 0 {
		r.L = 50
	}
	if r.W == 0 {
		r.W = 20
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Output == "" {
		r.Output = "stats"
	}
	if r.Output != "stats" && r.Output != "csv" && r.Output != "svg" && r.Output != "agg" {
		return fmt.Errorf("output must be one of stats, csv, svg, agg; got %q", r.Output)
	}
	sc, err := source.Parse(orDefault(r.Scenario, "zero"))
	if err != nil {
		return err
	}
	r.scenario = sc
	r.Scenario = sc.Name()
	r.behavior, err = fault.ParseBehavior(r.FaultType, r.Faults)
	if err != nil {
		return err
	}
	r.FaultType = r.behavior.String()
	return validateGridDims(r.L, r.W, r.Faults, opts)
}

// CanonicalKey returns the canonical cache key. Requests that differ
// only in deadline share a key; requests that differ in output format do
// not (they cache different serialized bodies). The derivation is pinned
// byte-for-byte by TestCanonicalKeysPinned: the same key partitions the
// fleet, names durable store records, and keys both cache tiers, so it
// must never drift between releases running side by side.
func (r *RunRequest) CanonicalKey() string {
	return cacheKey("run", fmt.Sprintf("L=%d|W=%d|sc=%d|f=%d|ft=%d|seed=%d|plus=%t|out=%s",
		r.L, r.W, int(r.scenario), r.Faults, int(r.behavior), r.Seed, r.HexPlus, r.Output))
}

// RequestTimeout resolves the effective deadline for a request: ms when
// positive, opts.DefaultTimeout otherwise, clamped to opts.MaxTimeout.
func RequestTimeout(ms int64, opts Options) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = opts.DefaultTimeout
	}
	if d > opts.MaxTimeout {
		d = opts.MaxTimeout
	}
	return d
}

// RunResponse is the JSON body of a successful stats-output /v1/run.
type RunResponse struct {
	L           int         `json:"l"`
	W           int         `json:"w"`
	Scenario    string      `json:"scenario"`
	Faults      int         `json:"faults"`
	FaultType   string      `json:"fault_type,omitempty"`
	Seed        uint64      `json:"seed"`
	HexPlus     bool        `json:"hex_plus,omitempty"`
	FaultyNodes []int       `json:"faulty_nodes,omitempty"`
	Triggered   int         `json:"triggered"`
	Events      uint64      `json:"events"`
	HorizonNs   float64     `json:"horizon_ns"`
	IntraSkewNs SummaryJSON `json:"intra_skew_ns"`
	InterSkewNs SummaryJSON `json:"inter_skew_ns"`
}

// SummaryJSON mirrors stats.Summary for serialization.
type SummaryJSON struct {
	Min float64 `json:"min"`
	Q5  float64 `json:"q5"`
	Avg float64 `json:"avg"`
	Q95 float64 `json:"q95"`
	Max float64 `json:"max"`
	N   int     `json:"n"`
}

func summaryJSON(s stats.Summary) SummaryJSON {
	return SummaryJSON{Min: s.Min, Q5: s.Q5, Avg: s.Avg, Q95: s.Q95, Max: s.Max, N: s.N}
}

// computeRun executes one single-pulse simulation through the recipe in
// internal/experiment: NewPulse inside the grid-build span, Pulse.Run (the
// simulation and the wave) inside the sim span. Cancelled runs still
// report their partial event counts to the metrics registry before the
// error propagates, and — when the flight recorder is armed — still attach
// their audited event-stream tail to the request trace.
func (s *Service) computeRun(ctx context.Context, r RunRequest) (*coalesce.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	endBuild := tr.StartSpan("grid-build")
	h, err := buildGrid(r.L, r.W, r.HexPlus)
	var p *experiment.Pulse
	if err == nil {
		p, err = experiment.NewPulse(h, core.DefaultParams(), r.scenario, r.Faults, r.behavior, r.Seed)
	}
	endBuild()
	if err != nil {
		return nil, errBadRequest{err}
	}
	var fr *obs.FlightRecorder
	if r.flightArm {
		fr = obs.NewFlightRecorder(s.opts.FlightEvents)
		tr.Note("flight-armed")
	}
	start := time.Now()
	endSim := tr.StartSpan("sim")
	// The wave serves both the output encoders below and the arm policy's
	// skew predicate. Failed runs have no wave (the policy can still arm on
	// the error itself). Every output reads only each node's first
	// trigger, so the compact result skips the per-node trigger slices.
	res, wave, err := p.Run(ctx, flightTracer(fr), true)
	endSim()
	elapsed := time.Since(start)
	s.Metrics.SimRuns.Inc()
	s.Metrics.SimRunSeconds.ObserveDuration(elapsed)
	if res != nil {
		s.Metrics.SimEvents.Add(res.Events)
		s.Metrics.SimRunEvents.Observe(float64(res.Events))
		s.Metrics.EventsPerSec.Observe(res.Events, elapsed)
	}
	var dump *obs.FlightDump
	if fr != nil {
		// Audit the captured window against this run's own topology and
		// fault plan; embed the raw events only for failed runs (they are
		// the post-mortem payload) or when the audit itself failed.
		aud := &trace.Auditor{G: p.Graph, Plan: p.Plan, Params: p.Params}
		dump = obs.NewFlightDump(fr, aud, err != nil)
		tr.SetFlight(dump)
		if !dump.AuditOK {
			s.opts.Logger.Warn("flight-recorder audit failed",
				"request_id", tr.ID(),
				"audit_error", dump.AuditError,
				"captured", dump.Captured,
				"dropped", dump.Dropped)
		}
	}
	s.evaluateArm(ctx, tr, r, p, wave, fr, dump, err, elapsed)
	if err != nil {
		return nil, err
	}
	endEncode := tr.StartSpan("encode")
	defer endEncode()
	switch r.Output {
	case "csv":
		return &coalesce.Value{Body: []byte(render.WaveCSV(wave, h)),
			ContentType: "text/csv; charset=utf-8", Events: res.Events}, nil
	case "svg":
		return &coalesce.Value{Body: []byte(render.WaveSVG(wave, h, 10)),
			ContentType: "image/svg+xml", Events: res.Events}, nil
	}
	intra, inter := wave.Summaries()
	if r.Output == "agg" {
		return &coalesce.Value{Body: store.EncodeAggregate(&store.Aggregate{
			Triggered: uint32(wave.TriggeredCount()),
			Events:    res.Events,
			Horizon:   res.Horizon,
			ElapsedNs: uint64(elapsed.Nanoseconds()),
			IntraSkew: intra,
			InterSkew: inter,
		}), ContentType: aggregateContentType, Events: res.Events}, nil
	}
	resp := RunResponse{
		L: r.L, W: r.W, Scenario: r.Scenario, Faults: r.Faults,
		Seed: r.Seed, HexPlus: r.HexPlus,
		FaultyNodes: p.Plan.FaultyNodes(),
		Triggered:   wave.TriggeredCount(),
		Events:      res.Events,
		HorizonNs:   res.Horizon.Nanoseconds(),
		IntraSkewNs: summaryJSON(intra),
		InterSkewNs: summaryJSON(inter),
	}
	if r.Faults > 0 {
		resp.FaultType = r.FaultType
	}
	return marshalCached(resp, res.Events)
}

// SpecRequest is the body of POST /v1/spec: a multi-run experiment in the
// shape of experiment.Spec, answered with aggregate skew statistics.
type SpecRequest struct {
	L         int    `json:"l,omitempty"`
	W         int    `json:"w,omitempty"`
	Scenario  string `json:"scenario,omitempty"`
	Faults    int    `json:"faults,omitempty"`
	FaultType string `json:"fault_type,omitempty"`
	// Runs is the number of independent runs (default 250).
	Runs int    `json:"runs,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// HexPlus selects the Section 5 augmented topology.
	HexPlus bool `json:"hex_plus,omitempty"`
	// ExcludeHops excludes the h-hop neighborhoods of faulty nodes from
	// the statistics, as in the paper's fault-local tables.
	ExcludeHops int   `json:"exclude_hops,omitempty"`
	TimeoutMs   int64 `json:"timeout_ms,omitempty"`

	scenario source.Scenario `json:"-"`
	behavior fault.Behavior  `json:"-"`
}

// Normalize fills defaults, parses enums, and enforces limits.
func (r *SpecRequest) Normalize(opts Options) error {
	if r.L == 0 {
		r.L = 50
	}
	if r.W == 0 {
		r.W = 20
	}
	if r.Runs == 0 {
		r.Runs = 250
	}
	if r.Runs < 0 || r.Runs > opts.MaxRuns {
		return fmt.Errorf("runs must be in [1, %d]; got %d", opts.MaxRuns, r.Runs)
	}
	if r.ExcludeHops < 0 {
		return fmt.Errorf("exclude_hops must be >= 0; got %d", r.ExcludeHops)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	sc, err := source.Parse(orDefault(r.Scenario, "zero"))
	if err != nil {
		return err
	}
	r.scenario = sc
	r.Scenario = sc.Name()
	r.behavior, err = fault.ParseBehavior(r.FaultType, r.Faults)
	if err != nil {
		return err
	}
	r.FaultType = r.behavior.String()
	return validateGridDims(r.L, r.W, r.Faults, opts)
}

// CanonicalKey returns the canonical cache key of the spec request.
func (r *SpecRequest) CanonicalKey() string {
	return cacheKey("spec", fmt.Sprintf("L=%d|W=%d|sc=%d|f=%d|ft=%d|runs=%d|seed=%d|plus=%t|hops=%d",
		r.L, r.W, int(r.scenario), r.Faults, int(r.behavior), r.Runs, r.Seed, r.HexPlus, r.ExcludeHops))
}

// SpecResponse is the JSON body of a successful /v1/spec.
type SpecResponse struct {
	L           int         `json:"l"`
	W           int         `json:"w"`
	Scenario    string      `json:"scenario"`
	Faults      int         `json:"faults"`
	FaultType   string      `json:"fault_type,omitempty"`
	Runs        int         `json:"runs"`
	Seed        uint64      `json:"seed"`
	HexPlus     bool        `json:"hex_plus,omitempty"`
	ExcludeHops int         `json:"exclude_hops,omitempty"`
	Events      uint64      `json:"events"`
	IntraSkewNs SummaryJSON `json:"intra_skew_ns"`
	InterSkewNs SummaryJSON `json:"inter_skew_ns"`
}

// computeSpec executes all runs of the spec on the caller's context.
func (s *Service) computeSpec(ctx context.Context, r SpecRequest) (*coalesce.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec := experiment.Spec{
		L: r.L, W: r.W,
		Scenario:  r.scenario,
		Faults:    r.Faults,
		FaultType: r.behavior,
		Runs:      r.Runs,
		Seed:      r.Seed,
		HexPlus:   r.HexPlus,
	}
	tr := obs.FromContext(ctx)
	endSweep := tr.StartSpan("experiment-sweep")
	start := time.Now()
	outs, err := experiment.RunManyCtx(ctx, spec)
	// Wall clock of the whole sweep: EventsPerSec aggregates across
	// the sweep's worker goroutines, so hexd_events_per_sec reports
	// process-level throughput rather than one goroutine's share.
	wall := time.Since(start)
	endSweep()
	s.Metrics.SimRuns.Add(uint64(len(outs)))
	if err != nil {
		return nil, err
	}
	var events uint64
	for _, o := range outs {
		events += o.Res.Events
		// Per-run wall time was previously invisible inside sweeps: the
		// endpoint histogram sees one aggregate latency for all Runs.
		s.Metrics.SimRunSeconds.ObserveDuration(o.Elapsed)
	}
	s.Metrics.SimEvents.Add(events)
	s.Metrics.SimRunEvents.Observe(float64(events))
	s.Metrics.EventsPerSec.Observe(events, wall)
	endEncode := tr.StartSpan("encode")
	defer endEncode()
	intra, inter := experiment.CollectSkews(outs, r.ExcludeHops)
	resp := SpecResponse{
		L: r.L, W: r.W, Scenario: r.Scenario, Faults: r.Faults,
		Runs: r.Runs, Seed: r.Seed, HexPlus: r.HexPlus, ExcludeHops: r.ExcludeHops,
		Events:      events,
		IntraSkewNs: summaryJSON(stats.Summarize(intra)),
		InterSkewNs: summaryJSON(stats.Summarize(inter)),
	}
	if r.Faults > 0 {
		resp.FaultType = r.FaultType
	}
	return marshalCached(resp, events)
}

// buildGrid returns the requested topology from the process-wide grid
// cache: every request, sweep unit, and router-fanned unit that agrees on
// (topology, L, W) shares one immutable grid, built once. Pointer-stable
// grids also keep core.Run's idle arenas warm (core.Arena keys storage
// reuse on the topology pointer). It is a variable so the differential
// test can substitute fresh construction and pin that caching is invisible
// in the results.
var buildGrid = func(l, w int, plus bool) (*grid.Hex, error) {
	return grid.Shared.Build(l, w, plus)
}

// validateGridDims enforces the service-level admission limits.
func validateGridDims(l, w, faults int, opts Options) error {
	if l < 1 || w < 1 {
		return fmt.Errorf("grid dimensions must be positive; got L=%d W=%d", l, w)
	}
	if nodes := (l + 1) * w; nodes > opts.MaxNodes {
		return fmt.Errorf("grid of %d nodes exceeds the limit of %d", nodes, opts.MaxNodes)
	}
	if faults < 0 {
		return fmt.Errorf("faults must be >= 0; got %d", faults)
	}
	return nil
}

// cacheKey hashes a canonical field string into a stable hex key.
func cacheKey(kind, fields string) string {
	sum := sha256.Sum256([]byte(kind + "|v1|" + fields))
	return kind + ":" + hex.EncodeToString(sum[:16])
}

// marshalCached serializes a JSON response body into a cache entry.
func marshalCached(v any, events uint64) (*coalesce.Value, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return &coalesce.Value{Body: buf.Bytes(), ContentType: "application/json", Events: events}, nil
}

// orDefault returns s, or def when s is empty.
func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
