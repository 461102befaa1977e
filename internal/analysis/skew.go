package analysis

import (
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
)

// IntraSkews returns the absolute intra-layer skews |t_{ℓ,i} − t_{ℓ,i+1}|
// in nanoseconds over all layers ℓ ≥ 1 (layer 0 is excluded, matching the
// σ^op definitions of Section 4.1). Pairs involving excluded or untriggered
// nodes are dropped.
func (w *Wave) IntraSkews() []float64 {
	var out []float64
	for l := 1; l < w.G.NumLayers(); l++ {
		out = w.appendIntraLayer(out, l)
	}
	return out
}

// IntraSkewsLayer returns the absolute intra-layer skews of a single layer.
func (w *Wave) IntraSkewsLayer(l int) []float64 {
	return w.appendIntraLayer(nil, l)
}

func (w *Wave) appendIntraLayer(out []float64, l int) []float64 {
	for _, n := range w.G.Layer(l) {
		r, ok := w.G.RightNeighbor(n)
		if !ok || !w.Valid(n) || !w.Valid(r) {
			continue
		}
		out = append(out, sim.AbsTime(w.T[n]-w.T[r]).Nanoseconds())
	}
	return out
}

// AppendIntraSkewTimes appends the raw intra-layer skews |t_{ℓ,i} −
// t_{ℓ,i+1}| of all layers ℓ ≥ 1 to out, in the same pair order as
// IntraSkews but without the nanosecond conversion. Paired with
// stats.SummarizeScaled it yields the exact IntraSkews summary while
// letting hot paths sort integers and reuse one scratch buffer.
func (w *Wave) AppendIntraSkewTimes(out []sim.Time) []sim.Time {
	for l := 1; l < w.G.NumLayers(); l++ {
		for _, n := range w.G.Layer(l) {
			r, ok := w.G.RightNeighbor(n)
			if !ok || !w.Valid(n) || !w.Valid(r) {
				continue
			}
			out = append(out, sim.AbsTime(w.T[n]-w.T[r]))
		}
	}
	return out
}

// AppendInterSkewTimes is AppendIntraSkewTimes's counterpart for the
// signed inter-layer skews of InterSkews.
func (w *Wave) AppendInterSkewTimes(out []sim.Time) []sim.Time {
	for l := 1; l < w.G.NumLayers(); l++ {
		for _, n := range w.G.Layer(l) {
			if !w.Valid(n) {
				continue
			}
			if ll, ok := w.G.LowerLeftNeighbor(n); ok && w.Valid(ll) {
				out = append(out, w.T[n]-w.T[ll])
			}
			if lr, ok := w.G.LowerRightNeighbor(n); ok && w.Valid(lr) {
				out = append(out, w.T[n]-w.T[lr])
			}
		}
	}
	return out
}

// Summaries returns the summaries (in ns) of IntraSkews and InterSkews,
// bit-identical to stats.Summarize over them. It sorts the raw integer
// skews instead, in one scratch buffer that serves both vectors: every
// node above layer 0 contributes at most one intra and two inter pairs,
// and stats.SummarizeScaled is done with the memory when it returns.
func (w *Wave) Summaries() (intra, inter stats.Summary) {
	skews := make([]sim.Time, 0, 2*w.G.NumNodes())
	intra = stats.SummarizeScaled(w.AppendIntraSkewTimes(skews), float64(sim.Nanosecond))
	inter = stats.SummarizeScaled(w.AppendInterSkewTimes(skews), float64(sim.Nanosecond))
	return intra, inter
}

// InterSkews returns the signed inter-layer skews t_{ℓ,i} − t_{ℓ−1,i} and
// t_{ℓ,i} − t_{ℓ−1,i+1} in nanoseconds over all layers ℓ ≥ 1, dropping
// pairs with excluded or untriggered nodes. The sign is kept because the
// inter-layer skew has a non-zero bias of at least d− (Section 4.1).
func (w *Wave) InterSkews() []float64 {
	var out []float64
	for l := 1; l < w.G.NumLayers(); l++ {
		out = w.appendInterLayer(out, l)
	}
	return out
}

// InterSkewsLayer returns the signed inter-layer skews between layer l and
// layer l−1 only.
func (w *Wave) InterSkewsLayer(l int) []float64 {
	return w.appendInterLayer(nil, l)
}

func (w *Wave) appendInterLayer(out []float64, l int) []float64 {
	for _, n := range w.G.Layer(l) {
		if !w.Valid(n) {
			continue
		}
		if ll, ok := w.G.LowerLeftNeighbor(n); ok && w.Valid(ll) {
			out = append(out, (w.T[n] - w.T[ll]).Nanoseconds())
		}
		if lr, ok := w.G.LowerRightNeighbor(n); ok && w.Valid(lr) {
			out = append(out, (w.T[n] - w.T[lr]).Nanoseconds())
		}
	}
	return out
}

// MaxIntraSkewLayer returns the maximal absolute intra-layer skew of layer
// l in simulation time units, or -1 if no pair is measurable.
func (w *Wave) MaxIntraSkewLayer(l int) sim.Time {
	max := sim.Time(-1)
	for _, n := range w.G.Layer(l) {
		r, ok := w.G.RightNeighbor(n)
		if !ok || !w.Valid(n) || !w.Valid(r) {
			continue
		}
		if s := sim.AbsTime(w.T[n] - w.T[r]); s > max {
			max = s
		}
	}
	return max
}

// InterSkewRangeLayer returns the (min, max) signed inter-layer skew of
// layer l, and ok=false if no pair is measurable.
func (w *Wave) InterSkewRangeLayer(l int) (lo, hi sim.Time, ok bool) {
	lo, hi = sim.MaxTime, -sim.MaxTime
	for _, n := range w.G.Layer(l) {
		if !w.Valid(n) {
			continue
		}
		if ll, has := w.G.LowerLeftNeighbor(n); has && w.Valid(ll) {
			s := w.T[n] - w.T[ll]
			lo, hi = sim.MinTime(lo, s), sim.MaxOf(hi, s)
			ok = true
		}
		if lr, has := w.G.LowerRightNeighbor(n); has && w.Valid(lr) {
			s := w.T[n] - w.T[lr]
			lo, hi = sim.MinTime(lo, s), sim.MaxOf(hi, s)
			ok = true
		}
	}
	return lo, hi, ok
}

// SkewPotential computes Δℓ of Definition 3 for layer `layer` of the
// hexagonal grid h: max over valid i, j of t_{ℓ,i} − t_{ℓ,j} − |i−j|_W · d−.
// It returns 0 if fewer than one valid node exists (Δℓ ≥ 0 always, since
// j = i is allowed).
func SkewPotential(w *Wave, h *grid.Hex, layer int, dMinus sim.Time) sim.Time {
	nodes := h.Layer(layer)
	var best sim.Time // Δℓ ≥ 0 because i == j contributes 0
	for _, ni := range nodes {
		if !w.Valid(ni) {
			continue
		}
		_, ci := h.Coord(ni)
		for _, nj := range nodes {
			if !w.Valid(nj) {
				continue
			}
			_, cj := h.Coord(nj)
			v := w.T[ni] - w.T[nj] - sim.Time(h.CyclicDistance(ci, cj))*dMinus
			if v > best {
				best = v
			}
		}
	}
	return best
}
