package core

// Arena-style reuse of simulation state. One run of a 50×20 grid used to
// allocate the node-state slice, one input slice per node, growing trigger
// slices per node, and the event queue's backing array — all garbage after
// the run. Sweeps execute hundreds of such runs per configuration, so this
// was the dominant source of GC pressure. An Arena keeps all of that
// storage — today the structure-of-arrays node/input slabs of soa.go, the
// trigger accumulators, and the engine queue's run, ring pool, far FIFO
// and heap — and re-initializes it per run; after a warm-up run on a
// given topology, a run allocates only its compact Result snapshot.

import (
	"runtime"
	"sync"
)

// Arena owns reusable simulation storage. Run re-initializes every field
// of the retained state before each simulation, so results are
// bit-identical to fresh allocation (the golden tests pin this). An Arena
// is not safe for concurrent use; use one per goroutine, or call the
// package-level Run, which keeps warm arenas for reuse.
type Arena struct {
	nw network
}

// NewArena returns an empty arena. Storage is grown lazily by the first
// run and re-sliced whenever a run uses a different topology than the
// previous one, so an arena is cheap to create and reuse-friendly only
// when consecutive runs share a *grid.Graph.
func NewArena() *Arena { return &Arena{} }

// Run executes the simulation described by cfg inside the arena and
// returns its result. The Result owns its memory and stays valid after
// the arena is reused.
func (a *Arena) Run(cfg Config) (*Result, error) { return a.nw.run(cfg) }

// idle holds warm arenas between package-level Runs, at most GOMAXPROCS
// of them: one per run that can execute at once. A sync.Pool lost them —
// a returned arena lands in the current P's private slot, where no other P
// can take it, and the pool drops idle arenas after two GCs — so about
// half the runs of a one-client L300_W200 serving load rebuilt their
// storage from scratch. Arenas hold no per-run references after a run
// (network.release drops the config), so an idle one retains only its
// sized storage plus the last topology pointer.
var idle struct {
	sync.Mutex
	arenas []*Arena
}

// Run executes the simulation described by cfg and returns its result,
// reusing a warm arena from the idle list when one is free.
func Run(cfg Config) (*Result, error) {
	var a *Arena
	idle.Lock()
	if n := len(idle.arenas); n > 0 {
		a = idle.arenas[n-1]
		idle.arenas = idle.arenas[:n-1]
	}
	idle.Unlock()
	if a == nil {
		a = NewArena()
	}
	res, err := a.Run(cfg)
	idle.Lock()
	if len(idle.arenas) < runtime.GOMAXPROCS(0) {
		idle.arenas = append(idle.arenas, a)
	}
	idle.Unlock()
	return res, err
}
