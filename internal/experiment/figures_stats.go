package experiment

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/render"
	"repro/internal/source"
	"repro/internal/stats"
)

// histFigure is the shared skeleton of Figs. 10 and 11: cumulated intra-
// and inter-layer skew histograms over all runs of one scenario.
func histFigure(title string, o Options, sc source.Scenario) (*FigResult, error) {
	outs, err := RunMany(o.spec(sc, 0, fault.Correct))
	if err != nil {
		return nil, err
	}
	intra, inter := CollectSkews(outs, 0)
	fig := newFig(title)
	fig.Sections = append(fig.Sections,
		render.Histogram(render.Hist(intra, 24), 48, "intra-layer skew [ns]"),
		render.Histogram(render.Hist(inter, 24), 48, "inter-layer skew [ns]"))
	si, se := stats.Summarize(intra), stats.Summarize(inter)
	fig.Data["intra_avg_ns"] = si.Avg
	fig.Data["intra_q95_ns"] = si.Q95
	fig.Data["intra_max_ns"] = si.Max
	fig.Data["inter_min_ns"] = se.Min
	fig.Data["inter_avg_ns"] = se.Avg
	fig.Data["inter_max_ns"] = se.Max
	// Tail mass beyond q95 quantifies the "sharp concentration with an
	// exponential tail" observation.
	fig.Data["intra_frac_above_2q95"] = fracAbove(intra, 2*si.Q95)
	return fig, nil
}

func fracAbove(xs []float64, thresh float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > thresh {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Fig10 reproduces Fig. 10: cumulated skew histograms for scenario (i) —
// sharply concentrated with an exponential tail.
func Fig10(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	return histFigure("Fig. 10: cumulated skew histograms, scenario (i)", o, source.Zero)
}

// Fig11 reproduces Fig. 11: histograms for scenario (iv), with the visible
// tail cluster caused by the large initial skews.
func Fig11(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	return histFigure("Fig. 11: cumulated skew histograms, scenario (iv)", o, source.Ramp)
}

// Fig12 reproduces Fig. 12: per-layer inter-layer skew series (min, avg,
// max, std over runs) for scenarios (iii) and (iv), truncated to 30 layers.
// The discrepant skews of the lower layers smooth out after layer W−2, in
// accordance with Lemma 3.
func Fig12(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	fig := newFig("Fig. 12: inter-layer skews per layer (min/avg/max over runs)")
	for _, sc := range []source.Scenario{source.UniformDPlus, source.Ramp} {
		outs, err := RunMany(o.spec(sc, 0, fault.Correct))
		if err != nil {
			return nil, err
		}
		maxLayer := 30
		maxLayer = min(maxLayer, o.L)
		t := &render.Table{
			Title:  fmt.Sprintf("scenario %v", sc),
			Header: []string{"layer", "min[ns]", "avg[ns]", "max[ns]", "std[ns]"},
		}
		var preW2, postW2 []float64 // max skews before/after layer W−2
		for l := 1; l <= maxLayer; l++ {
			var vals []float64
			for _, o := range outs {
				vals = append(vals, o.Wave.InterSkewsLayer(l)...)
			}
			if len(vals) == 0 {
				continue
			}
			mx := stats.Max(vals)
			t.AddRow(fmt.Sprintf("%d", l),
				render.Ns(stats.Min(vals)), render.Ns(stats.Mean(vals)),
				render.Ns(mx), render.Ns(stats.Std(vals)))
			if l < o.W-2 {
				preW2 = append(preW2, mx)
			} else {
				postW2 = append(postW2, mx)
			}
		}
		fig.Sections = append(fig.Sections, t.String())
		if len(preW2) > 0 && len(postW2) > 0 {
			fig.Data["max_inter_pre_W2_"+sc.Name()] = stats.Max(preW2)
			fig.Data["max_inter_post_W2_"+sc.Name()] = stats.Max(postW2)
		}
	}
	return fig, nil
}

// faultSweepFigure is the shared skeleton of Figs. 15 and 16: five-number
// summaries of the intra- and inter-layer skews for f ∈ [0, maxFaults]
// Byzantine nodes, with the faulty nodes' outgoing h-hop neighborhoods
// removed for h ∈ {0, 1}. The paper's figures are box plots of the
// *per-run* operators σ^op_ρ (min, q5, avg, q95, max computed within each
// run, then distributed over the 250 runs); a second table reports those.
func faultSweepFigure(title string, o Options, sc source.Scenario, maxFaults int, ft fault.Behavior) (*FigResult, error) {
	fig := newFig(title)
	for _, hops := range []int{0, 1} {
		t := &render.Table{
			Title: fmt.Sprintf("h=%d hop exclusion (pooled over runs)", hops),
			Header: []string{"f",
				"intra avg", "intra q95", "intra max",
				"inter min", "inter q5", "inter avg", "inter q95", "inter max"},
		}
		box := &render.Table{
			Title: fmt.Sprintf("h=%d per-run operator distributions (box-plot data: median [min..max] over runs)", hops),
			Header: []string{"f",
				"intra avg/run", "intra q95/run", "intra max/run",
				"inter q95/run", "inter max/run"},
		}
		var plotLabels []string
		var plotSums []stats.Summary
		for f := 0; f <= maxFaults; f++ {
			outs, err := RunMany(o.spec(sc, f, ft))
			if err != nil {
				return nil, err
			}
			intra, inter := CollectSkews(outs, hops)
			si, se := stats.Summarize(intra), stats.Summarize(inter)
			t.AddRow(fmt.Sprintf("%d", f),
				render.Ns(si.Avg), render.Ns(si.Q95), render.Ns(si.Max),
				render.Ns(se.Min), render.Ns(se.Q5), render.Ns(se.Avg),
				render.Ns(se.Q95), render.Ns(se.Max))
			key := fmt.Sprintf("intra_max_f%d_h%d", f, hops)
			fig.Data[key] = si.Max

			perRun := perRunOps(outs, hops)
			box.AddRow(fmt.Sprintf("%d", f),
				boxCell(perRun.intraAvg), boxCell(perRun.intraQ95), boxCell(perRun.intraMax),
				boxCell(perRun.interQ95), boxCell(perRun.interMax))
			fig.Data[fmt.Sprintf("intra_max_run_median_f%d_h%d", f, hops)] =
				stats.Quantile(perRun.intraMax, 0.5)
			if len(perRun.intraMax) > 0 {
				plotLabels = append(plotLabels, fmt.Sprintf("f=%d", f))
				plotSums = append(plotSums, stats.Summarize(perRun.intraMax))
			}
		}
		plot := fmt.Sprintf("h=%d box plots of per-run intra max [ns]:\n%s",
			hops, render.BoxPlot(plotLabels, plotSums, 56))
		fig.Sections = append(fig.Sections, t.String(), box.String(), plot)
	}
	return fig, nil
}

// perRunValues holds one operator value per run.
type perRunValues struct {
	intraAvg, intraQ95, intraMax []float64
	interQ95, interMax           []float64
}

// perRunOps computes the per-run skew operators behind the paper's box
// plots.
func perRunOps(outs []*RunOut, hops int) perRunValues {
	var v perRunValues
	for _, o := range outs {
		intra, inter := CollectSkews([]*RunOut{o}, hops)
		if len(intra) > 0 {
			si := stats.Summarize(intra)
			v.intraAvg = append(v.intraAvg, si.Avg)
			v.intraQ95 = append(v.intraQ95, si.Q95)
			v.intraMax = append(v.intraMax, si.Max)
		}
		if len(inter) > 0 {
			se := stats.Summarize(inter)
			v.interQ95 = append(v.interQ95, se.Q95)
			v.interMax = append(v.interMax, se.Max)
		}
	}
	return v
}

// boxCell formats a per-run operator distribution as "median [min..max]".
func boxCell(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f [%.2f..%.2f]",
		stats.Quantile(xs, 0.5), stats.Min(xs), stats.Max(xs))
}

// Fig15 reproduces Fig. 15: skews vs. number of Byzantine faults under
// scenario (iii); with h=1 exclusion the fault effects essentially
// disappear (fault locality).
func Fig15(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	return faultSweepFigure("Fig. 15: skews vs. Byzantine faults, scenario (iii)", o, source.UniformDPlus, 5, fault.Byzantine)
}

// Fig16 reproduces Fig. 16: the same sweep under the ramp scenario (iv),
// where a single fault already causes essentially the worst-case skew and
// multiple faults do not accumulate.
func Fig16(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	return faultSweepFigure("Fig. 16: skews vs. Byzantine faults, scenario (iv)", o, source.Ramp, 5, fault.Byzantine)
}

// Fig15Crash runs Fig. 15's sweep with fail-silent instead of Byzantine
// nodes. The paper reports (Section 4.3, citing [32]) that crash faults
// are more benign: "all results are qualitatively similar, albeit with
// smaller skews".
func Fig15Crash(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	return faultSweepFigure("Fig. 15 variant: skews vs. fail-silent faults, scenario (iii)", o, source.UniformDPlus, 5, fault.FailSilent)
}

// Fig16Crash is the fail-silent variant of Fig. 16.
func Fig16Crash(o Options) (*FigResult, error) {
	o = o.WithDefaults()
	return faultSweepFigure("Fig. 16 variant: skews vs. fail-silent faults, scenario (iv)", o, source.Ramp, 5, fault.FailSilent)
}
