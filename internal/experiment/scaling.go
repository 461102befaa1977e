package experiment

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/theory"
)

// Scaling sweeps the grid width and reports measured neighbor skews against
// Theorem 1's bound — the asymptotic story of the introduction: the bound
// grows only through the ⌈Wε/d+⌉ε term while typical skews stay flat, so
// "scaling honeycombs" costs almost nothing in skew. The sweep also
// measures the per-layer skew potential Δℓ directly against Lemma 3's
// 2(W−2)ε bound (under ramped layer-0 skews, which maximize Δ0).
func Scaling(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	runs := reducedRuns(o.Runs)
	fig := newFig("Scaling: skew vs. grid width W (L = 50)")
	t := &render.Table{
		Header: []string{"W", "n", "intra avg", "intra q95", "intra max",
			"thm1 bound", "max/bound", "Δℓ max (ramp)", "lemma3 bound"},
		Note: "skews in ns, scenario (iii); Δℓ measured over layers ≥ W−2 under the ramp scenario",
	}
	for _, w := range []int{8, 16, 32, 64} {
		spec := Spec{L: 50, W: w, Runs: runs, Seed: o.Seed,
			Scenario: source.UniformDPlus}.WithDefaults()
		outs, err := RunMany(spec)
		if err != nil {
			return nil, err
		}
		intra, _ := CollectSkews(outs, 0)
		s := stats.Summarize(intra)
		// Scenario (iii) has Δ0 ≤ ε; the uniform bound applies above 2W−2,
		// use the conservative low-layer form for the whole grid.
		bound := theory.Theorem1IntraBound(1, w, spec.Bounds, spec.Bounds.Epsilon())

		// Skew potential under the ramp (the adversarial input for Δℓ).
		// Lemma 3 only speaks about layers ℓ ≥ W−2; for W−2 > L the grid
		// is too short and the measurement is not applicable.
		deltaCell, lemma3Cell := "n/a", "n/a"
		if w-2 <= 50 {
			rampSpec := Spec{L: 50, W: w, Runs: max(runs/4, 3), Seed: o.Seed,
				Scenario: source.Ramp}.WithDefaults()
			rampOuts, err := RunMany(rampSpec)
			if err != nil {
				return nil, err
			}
			var deltaMax sim.Time
			for _, out := range rampOuts {
				for l := w - 2; l <= out.Hex.L; l++ {
					deltaMax = max(deltaMax, analysis.SkewPotential(out.Wave, out.Hex, l, spec.Bounds.Min))
				}
			}
			lemma3 := theory.Lemma3SkewPotential(w, spec.Bounds)
			deltaCell, lemma3Cell = render.NsTime(deltaMax), render.NsTime(lemma3)
			fig.Data[fmt.Sprintf("delta_max_W%d", w)] = deltaMax.Nanoseconds()
			fig.Data[fmt.Sprintf("lemma3_W%d", w)] = lemma3.Nanoseconds()
		}

		t.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%d", 51*w),
			render.Ns(s.Avg), render.Ns(s.Q95), render.Ns(s.Max),
			render.NsTime(bound), fmt.Sprintf("%.0f%%", 100*s.Max/bound.Nanoseconds()),
			deltaCell, lemma3Cell)
		fig.Data[fmt.Sprintf("intra_avg_W%d", w)] = s.Avg
		fig.Data[fmt.Sprintf("intra_max_W%d", w)] = s.Max
		fig.Data[fmt.Sprintf("bound_W%d", w)] = bound.Nanoseconds()
		_ = fault.Correct
	}
	fig.Sections = append(fig.Sections, t.String())
	return fig, nil
}
