package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/store"
)

// This file replays a served op single-threaded through the public
// function of each layer it passes, with a span around every call. It
// mirrors the service's computeRun stage for stage; the byte-identity
// check against the served body is what keeps the two in step.

const aggregateContentType = "application/vnd.hex.aggregate"

// compute runs one normalized request through grid → fault → source →
// core → analysis → stats → encode, recording a span per stage under
// parent. It returns the body the service would serve and the run's event
// count.
func compute(rec *recorder, parent int, r service.RunRequest) (*coalesce.Value, error) {
	sp := rec.begin("grid.build", parent)
	h, err := grid.Shared.Build(r.L, r.W, r.HexPlus)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("fault.place", parent)
	plan := fault.NewPlan(h.NumNodes())
	var placed []int
	if r.Faults > 0 {
		behavior := fault.Byzantine
		if r.FaultType == fault.FailSilent.String() {
			behavior = fault.FailSilent
		}
		rngF := sim.NewRNG(sim.DeriveSeed(r.Seed, "faults"))
		placed, err = fault.PlaceRandom(h.Graph, r.Faults, nil, rngF, 0)
		if err != nil {
			rec.end(sp)
			return nil, err
		}
		for _, n := range placed {
			plan.SetBehavior(n, behavior)
		}
		if behavior == fault.Byzantine {
			plan.RandomizeByzantine(h.Graph, rngF)
		}
	}
	rec.end(sp)

	sp = rec.begin("source.offsets", parent)
	sc, err := source.Parse(r.Scenario)
	if err != nil {
		rec.end(sp)
		return nil, err
	}
	params := core.DefaultParams()
	offsets := source.Offsets(sc, r.W, params.Bounds, sim.NewRNG(sim.DeriveSeed(r.Seed, "offsets")))
	rec.end(sp)

	agg := r.Output == "agg"
	start := time.Now()
	sp = rec.begin("core.run", parent)
	res, err := core.Run(core.Config{
		Graph:            h.Graph,
		Params:           params,
		Delay:            delay.Uniform{Bounds: params.Bounds},
		Faults:           plan,
		Schedule:         source.SinglePulse(offsets),
		Seed:             r.Seed,
		FirstTriggerOnly: agg,
	})
	rec.end(sp)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("analysis.wave", parent)
	var wave *analysis.Wave
	if agg {
		wave = analysis.WaveFromFirstTriggers(h.Graph, res, plan)
	} else {
		wave = analysis.WaveFromResult(h.Graph, res, plan, 0)
	}
	intraT := wave.AppendIntraSkewTimes(nil)
	interT := wave.AppendInterSkewTimes(nil)
	rec.end(sp)

	sp = rec.begin("stats.summarize", parent)
	intra := stats.SummarizeScaled(intraT, float64(sim.Nanosecond))
	inter := stats.SummarizeScaled(interT, float64(sim.Nanosecond))
	rec.end(sp)

	sp = rec.begin("service.encode", parent)
	defer rec.end(sp)
	if agg {
		body := store.EncodeAggregate(&store.Aggregate{
			Triggered: uint32(wave.TriggeredCount()),
			Events:    res.Events,
			Horizon:   res.Horizon,
			ElapsedNs: uint64(elapsed.Nanoseconds()),
			IntraSkew: intra,
			InterSkew: inter,
		})
		return &coalesce.Value{Body: body, ContentType: aggregateContentType, Events: res.Events}, nil
	}
	resp := service.RunResponse{
		L: r.L, W: r.W, Scenario: r.Scenario, Faults: r.Faults,
		Seed: r.Seed, HexPlus: r.HexPlus,
		FaultyNodes: placed,
		Triggered:   wave.TriggeredCount(),
		Events:      res.Events,
		HorizonNs:   res.Horizon.Nanoseconds(),
		IntraSkewNs: summaryJSON(intra),
		InterSkewNs: summaryJSON(inter),
	}
	if r.Faults > 0 {
		resp.FaultType = r.FaultType
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	return &coalesce.Value{Body: buf.Bytes(), ContentType: "application/json", Events: res.Events}, nil
}

func summaryJSON(s stats.Summary) service.SummaryJSON {
	return service.SummaryJSON{Min: s.Min, Q5: s.Q5, Avg: s.Avg, Q95: s.Q95, Max: s.Max, N: s.N}
}

// replayer replays ops the way the serving pipeline handles them: decode,
// canonical key, a coalescer in front of a scratch store (LRU, then store
// read-through, then compute), and the store write. It counts work at the
// same boundaries it times: runs and events at core.Run, fsyncs and bytes
// at each store write.
type replayer struct {
	rec  *recorder
	st   *store.Store
	coal *coalesce.Coalescer
	// getParent is the span the store read-through hook parents under.
	getParent int

	runs, events    uint64
	writes, entries uint64
	fsyncs          uint64
	bytes           int64
}

// newReplayer puts a coalescer with the service's default LRU size in front
// of st, with the store as its second tier.
func newReplayer(rec *recorder, st *store.Store) *replayer {
	rp := &replayer{rec: rec, st: st}
	rp.coal = coalesce.New(serviceOpts.CacheEntries, coalesce.Hooks{
		Submit: func(func()) error { return fmt.Errorf("replay computes inline") },
		SecondTier: func(_ context.Context, key string) (*coalesce.Value, bool) {
			sp := rec.begin("store.get", rp.getParent)
			defer rec.end(sp)
			e, ok, err := st.Get(key)
			if err != nil || !ok {
				return nil, false
			}
			return &coalesce.Value{Body: e.Body, ContentType: e.ContentType, Events: e.Events}, true
		},
	})
	return rp
}

// op replays one request under parent and returns its open "replay.op"
// span, which the caller ends after any store write. fresh reports that it
// computed (a miss in both tiers); the caller then writes the value.
func (rp *replayer) op(parent int, body []byte) (key string, v *coalesce.Value, fresh bool, id int, err error) {
	rec := rp.rec
	id = rec.begin("replay.op", parent)

	sp := rec.begin("service.decode", id)
	var req service.RunRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	if err == nil {
		err = req.Normalize(serviceOpts)
	}
	rec.end(sp)
	if err != nil {
		return "", nil, false, id, err
	}

	sp = rec.begin("service.key", id)
	key = req.CanonicalKey()
	rec.end(sp)

	sp = rec.begin("coalesce.do", id)
	rp.getParent = sp
	v, fresh, err = rp.coal.DoInline(context.Background(), key, func(context.Context) (*coalesce.Value, error) {
		v, err := compute(rec, sp, req)
		if err == nil {
			rp.runs++
			rp.events += v.Events
		}
		return v, err
	})
	rec.end(sp)
	return key, v, fresh, id, err
}

// write stores entries with one Put, or with one PutGroup when there are
// several, as the service's write-behind and batch paths do.
func (rp *replayer) write(parent int, entries []store.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	f0, b0 := rp.st.Fsyncs(), rp.st.Bytes()
	sp := rp.rec.begin("store.write", parent)
	var err error
	if len(entries) == 1 {
		err = rp.st.Put(entries[0])
	} else {
		err = rp.st.PutGroup(entries)
	}
	rp.rec.end(sp)
	rp.writes++
	rp.entries += uint64(len(entries))
	rp.fsyncs += rp.st.Fsyncs() - f0
	rp.bytes += rp.st.Bytes() - b0
	return err
}
