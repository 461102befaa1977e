package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/service"
)

// MaxWeight bounds a sweep's WFQ weight. The range is deliberately
// narrow: weights express ratios between tenants, not absolute
// priorities, and a 1:64 ratio is already effectively "everything mine".
const MaxWeight = 64

// maxTenantLen bounds accepted tenant names.
const maxTenantLen = 64

// SweepSpec is the body of POST /v1/sweeps: the cross product of the
// scenario, fault-count, and seed axes over one grid shape. Every
// combination decomposes into exactly the RunRequest a client could have
// sent as its own POST /v1/run, and its canonical key is byte-identical
// to that request's key — which is what lets the LRU, the durable store,
// and the rendezvous-hashed fleet dedupe sweep units against interactive
// traffic and against other sweeps.
type SweepSpec struct {
	// L, W are the grid dimensions shared by every unit (defaults 50, 20).
	L int `json:"l,omitempty"`
	W int `json:"w,omitempty"`
	// Scenarios lists layer-0 skew scenarios (any alias source.Parse
	// accepts; default ["zero"]). Order is preserved in decomposition.
	Scenarios []string `json:"scenarios,omitempty"`
	// Faults lists fault counts (default [0]).
	Faults []int `json:"faults,omitempty"`
	// FaultType is "byzantine" (default when a unit has faults) or
	// "fail-silent", shared by every faulty unit.
	FaultType string `json:"fault_type,omitempty"`
	// HexPlus selects the Section 5 augmented topology.
	HexPlus bool `json:"hex_plus,omitempty"`
	// Seeds lists explicit seeds; SeedStart/SeedCount appends the range
	// [SeedStart, SeedStart+SeedCount). When both are empty the sweep
	// runs seed 1. A seed of 0 normalizes to 1, like /v1/run.
	Seeds     []uint64 `json:"seeds,omitempty"`
	SeedStart uint64   `json:"seed_start,omitempty"`
	SeedCount int      `json:"seed_count,omitempty"`
	// Output is each unit's output format — any format POST /v1/run
	// accepts ("stats" default, "csv", "svg", or the compact binary
	// "agg"). Campaigns that only need skew statistics run "agg": the
	// simulation skips the full per-node trigger snapshot and each unit's
	// record shrinks to a fixed-size HXA1 frame.
	Output string `json:"output,omitempty"`
	// Batch packs this many consecutive units into one scheduled batch
	// (default 1). Every batch is one scheduler dispatch, one Runner call
	// and one sweep-batch trace; the WFQ scheduler charges the tenant for
	// the batch's full unit count, so batching never buys extra scheduler
	// share. Each unit keeps its canonical per-run key and fans out its
	// own result event. On a backend a batch of one is a single run
	// (persisted write-behind), and a larger batch occupies one worker and
	// one store group commit, so per-unit fixed costs amortize
	// Batch-fold. On a router a batch's units are forwarded one after
	// another to their owning shards.
	Batch int `json:"batch,omitempty"`
	// Tenant names the client for weighted fair queueing (default
	// "default"). Units of all jobs submitted under one tenant share that
	// tenant's scheduler queue.
	Tenant string `json:"tenant,omitempty"`
	// Weight is the tenant's WFQ weight (default 1, max MaxWeight). The
	// most recent submission's weight governs the tenant's queue.
	Weight int `json:"weight,omitempty"`
	// TimeoutMs is the per-unit deadline in milliseconds; 0 uses the
	// server default, larger values are clamped to the server maximum.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Unit is one work item of a decomposed sweep: a normalized single-run
// request plus its canonical key.
type Unit struct {
	// Index is the unit's position in decomposition order (0-based).
	Index int
	// Req is the normalized equivalent single-run request.
	Req service.RunRequest
	// Key is Req's canonical key — byte-identical to what the same
	// request would be cached, stored, and sharded under if POSTed to
	// /v1/run directly.
	Key string
}

// Normalize fills the spec's defaults and validates its scheduling
// fields. Unit-level validation (grid dimensions, scenario names, fault
// feasibility) happens in Decompose, where each unit runs through the
// same RunRequest.Normalize as a real /v1/run.
func (sp *SweepSpec) Normalize(maxUnits int) error {
	if len(sp.Scenarios) == 0 {
		sp.Scenarios = []string{"zero"}
	}
	if len(sp.Faults) == 0 {
		sp.Faults = []int{0}
	}
	if sp.SeedCount < 0 {
		return fmt.Errorf("seed_count must be >= 0; got %d", sp.SeedCount)
	}
	if len(sp.Seeds) == 0 && sp.SeedCount == 0 {
		sp.SeedCount = 1
	}
	if sp.SeedCount > 0 && sp.SeedStart == 0 {
		// Seed 0 is an alias of seed 1 (RunRequest.Normalize maps it), so
		// a range from 0 would collide with its own second element; start
		// ranges at the first distinct seed instead.
		sp.SeedStart = 1
	}
	if sp.Batch == 0 {
		sp.Batch = 1
	}
	if sp.Batch < 1 || sp.Batch > maxUnits {
		return fmt.Errorf("batch must be in [1, %d]; got %d", maxUnits, sp.Batch)
	}
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if len(sp.Tenant) > maxTenantLen || !obs.Printable(sp.Tenant) {
		return fmt.Errorf("tenant must be printable and at most %d bytes", maxTenantLen)
	}
	if sp.Weight == 0 {
		sp.Weight = 1
	}
	if sp.Weight < 1 || sp.Weight > MaxWeight {
		return fmt.Errorf("weight must be in [1, %d]; got %d", MaxWeight, sp.Weight)
	}
	// Bound each axis before multiplying so the unit-count product cannot
	// overflow: every axis is individually capped by maxUnits.
	for _, n := range []int{len(sp.Scenarios), len(sp.Faults), len(sp.Seeds) + sp.SeedCount} {
		if n > maxUnits {
			return fmt.Errorf("sweep of %d+ units exceeds the limit of %d", n, maxUnits)
		}
	}
	units := len(sp.Scenarios) * len(sp.Faults) * (len(sp.Seeds) + sp.SeedCount)
	if units > maxUnits {
		return fmt.Errorf("sweep of %d units exceeds the limit of %d", units, maxUnits)
	}
	return nil
}

// Decompose expands the normalized spec into its work units, in a stable
// order: scenarios (as given) outermost, then fault counts, then seeds
// (explicit list first, then the range ascending). Each unit is
// normalized with the same admission limits as a single /v1/run, so an
// infeasible unit rejects the whole sweep up front rather than failing
// mid-job. Two units with the same canonical key (duplicate seeds, alias
// scenarios) are an error: a job's units must be distinct work.
func (sp *SweepSpec) Decompose(opts service.Options) ([]Unit, error) {
	seeds := make([]uint64, 0, len(sp.Seeds)+sp.SeedCount)
	seeds = append(seeds, sp.Seeds...)
	for i := 0; i < sp.SeedCount; i++ {
		seeds = append(seeds, sp.SeedStart+uint64(i))
	}
	units := make([]Unit, 0, len(sp.Scenarios)*len(sp.Faults)*len(seeds))
	byKey := make(map[string]int, cap(units))
	for _, sc := range sp.Scenarios {
		for _, faults := range sp.Faults {
			for _, seed := range seeds {
				req := service.RunRequest{
					L: sp.L, W: sp.W,
					Scenario:  sc,
					Faults:    faults,
					FaultType: sp.FaultType,
					Seed:      seed,
					HexPlus:   sp.HexPlus,
					Output:    sp.Output,
					TimeoutMs: sp.TimeoutMs,
				}
				if err := req.Normalize(opts); err != nil {
					return nil, fmt.Errorf("unit %d (scenario=%q faults=%d seed=%d): %w",
						len(units), sc, faults, seed, err)
				}
				u := Unit{Index: len(units), Req: req, Key: req.CanonicalKey()}
				if prev, dup := byKey[u.Key]; dup {
					return nil, fmt.Errorf("units %d and %d are identical work (key %s); deduplicate the spec",
						prev, u.Index, u.Key)
				}
				byKey[u.Key] = u.Index
				units = append(units, u)
			}
		}
	}
	return units, nil
}

// jobKeyPrefix prefixes the durable store records holding sweep-job
// specs, keeping them disjoint from result records ("run:…", "spec:…").
const jobKeyPrefix = "job:"

// JobID derives the job's identity from exactly what the job is: the
// ordered unit key list plus the scheduling envelope. The derivation is
// deterministic, so a restart re-derives the same ID from the persisted
// spec (clients' event-stream URLs survive the restart), and an
// identical re-submission lands on the existing job instead of running
// the sweep twice. Batch is deliberately excluded: it changes how the
// work executes, never what the work is (unit keys already capture Output), and excluding it keeps IDs of
// records persisted before the field existed re-derivable.
func JobID(sp SweepSpec, units []Unit) string {
	h := sha256.New()
	fmt.Fprintf(h, "sweep|v1|tenant=%s|w=%d|to=%d|", sp.Tenant, sp.Weight, sp.TimeoutMs)
	for _, u := range units {
		h.Write([]byte(u.Key))
		h.Write([]byte{'|'})
	}
	var sum [sha256.Size]byte
	return "sweep:" + hex.EncodeToString(h.Sum(sum[:0])[:16])
}

// storeKey returns the durable store key holding the job's spec record.
func storeKey(jobID string) string { return jobKeyPrefix + jobID }

// marshalSpec / unmarshalSpec encode the spec for its durable job record.
// JSON keeps the record human-inspectable (hexctl can dump it) and lets
// fields be added compatibly; integrity comes from the store's own
// checksummed framing around the body.
func marshalSpec(sp SweepSpec) ([]byte, error)         { return json.Marshal(sp) }
func unmarshalSpec(b []byte) (sp SweepSpec, err error) { return sp, json.Unmarshal(b, &sp) }

// jobIDFromStoreKey inverts storeKey; ok is false for foreign keys.
func jobIDFromStoreKey(key string) (string, bool) {
	id, found := strings.CutPrefix(key, jobKeyPrefix)
	return id, found && strings.HasPrefix(id, "sweep:")
}
