package experiment

// RunSeed exposes the seed of run idx of s, as RunOne derives it, to the
// entry-point equivalence tests in package experiment_test.
func RunSeed(s Spec, idx int) uint64 { return s.WithDefaults().runSeed(idx) }

// StabRunSeed is RunSeed for a stabilization spec, as StabRunOne derives it.
func StabRunSeed(s StabSpec, idx int) uint64 { return s.WithDefaults().runSeed(idx) }
