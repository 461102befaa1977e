package experiment

// RunSeed exposes the seed of run idx of s, as RunOne derives it, to the
// entry-point equivalence test in package experiment_test.
func RunSeed(s Spec, idx int) uint64 { return s.WithDefaults().runSeed(idx) }
