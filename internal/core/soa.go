package core

// Structure-of-arrays node state.
//
// The simulator's inner loop is deliver → guard-check → fire. With per-node
// structs, one delivery chased three pointers (node struct, input slice,
// input struct) across unrelated cache lines. The state now lives in flat
// slabs owned by the arena-retained network, indexed by node id (and, for
// inputs, by a prefix-sum offset), so the loop touches a handful of
// contiguous bytes:
//
//   - cells[id]    — one nodeCell per node: the sleeping/faulty/source flags
//     and the per-role effective-input counters, packed so a guard check is
//     a single small load. cells[id].flags != 0 already answers "can this
//     node fire at all".
//   - wakeGen[id]  — sleep-timer generation, touched only on fire and wake.
//   - inOff[id]    — first input slot of node id; inOff[len] closes the last
//     range, so node id's inputs are slots inOff[id]..inOff[id+1].
//   - inBits[slot] — one byte per input: memory-flag bit, fault.LinkMode,
//     and grid.Role, so a delivery reads and writes exactly one byte of
//     input state and a wake-up scan is a straight byte sweep.
//   - inGen[slot]  — flag-timer generation, invalidating in-flight expiries.
//
// The slabs are re-initialized (not reallocated) per run by initState; only a
// topology change re-slices them. Layout is invisible to results: the
// golden tests pin bit-identical outcomes against the struct-based core.

import (
	"repro/internal/fault"
	"repro/internal/grid"
)

// nodeCell packs the per-node state read on every delivery and guard check.
// At 1+grid.NumRoles bytes, eight-plus cells share a cache line.
type nodeCell struct {
	flags   uint8
	roleCnt [grid.NumRoles]uint8
}

// nodeCell.flags bits. All three disqualify a node from firing, so
// checkFire tests flags != 0 once instead of three booleans.
const (
	nodeSleeping uint8 = 1 << iota
	nodeFaulty
	nodeSource
)

// inBits layout: bit 0 is the memory flag, bits 1-2 the fault.LinkMode,
// bits 3+ the grid.Role of the input.
const (
	inSetBit    uint8 = 1 << 0
	inModeShift       = 1
	inModeMask  uint8 = 3 << inModeShift
	inRoleShift       = 3
)

// inputBits assembles the static portion of an input's state byte.
func inputBits(mode fault.LinkMode, role grid.Role) uint8 {
	return uint8(mode)<<inModeShift | uint8(role)<<inRoleShift
}

// modeOf extracts the link mode from an input state byte.
func modeOf(bits uint8) fault.LinkMode {
	return fault.LinkMode((bits & inModeMask) >> inModeShift)
}

// roleOf extracts the input role from an input state byte.
func roleOf(bits uint8) grid.Role {
	return grid.Role(bits >> inRoleShift)
}
