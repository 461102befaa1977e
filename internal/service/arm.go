package service

import (
	"context"
	"time"

	"repro/internal/analysis"
	"repro/internal/delay"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/theory"
	"repro/internal/trace"
)

// Predicate-armed flight recording (obs.ArmPolicy): after every
// single-run computation the service asks the configured Armer whether
// the run's outcome deserved event-level forensics. If it did and the
// recorder was not already armed, the served experiment.Pulse is run
// again with the recorder on — Pulse.Run is a deterministic function of
// the Pulse, so the re-run reproduces the served event stream by
// construction — and the audited dump is attached to the request trace,
// where the debug ring and the OTLP exporter pick it up.

// evaluateArm applies the arm policy to one completed run of p. runErr is
// the run's error (nil on success); wave is the reconstructed wave (nil on
// error); fr/dump are non-nil when the request pre-armed via ?trace=1.
func (s *Service) evaluateArm(ctx context.Context, tr *obs.Trace, r RunRequest,
	p *experiment.Pulse, wave *analysis.Wave, fr *obs.FlightRecorder, dump *obs.FlightDump,
	runErr error, elapsed time.Duration) {
	a := s.opts.Arm
	if a == nil {
		return
	}
	o := obs.Outcome{
		Err:         runErr,
		Elapsed:     elapsed,
		AuditFailed: dump != nil && !dump.AuditOK,
	}
	if a.WantsSkew() && wave != nil {
		measureSkewEnvelope(&o, wave, r.W, p.Params.Bounds, source.Spread(p.Offsets))
	}
	reason, arm := a.Evaluate(o)
	if !arm {
		return
	}
	s.Metrics.ArmTriggered.Inc()
	tr.Note("arm:" + reason)
	tr.SetAttr("arm", reason)
	auditor := &trace.Auditor{G: p.Graph, Plan: p.Plan, Params: p.Params}
	if fr != nil {
		// The recorder already ran; just make sure the dump carries its
		// events — an armed run's dump is the forensic payload.
		if dump != nil && len(dump.Events) == 0 {
			tr.SetFlight(obs.NewFlightDump(fr, auditor, true))
		}
		return
	}
	if s.opts.FlightEvents < 0 || ctx.Err() != nil {
		// Flight recording disabled, or the deadline is already gone: the
		// verdict still reaches the trace/exported span via the note.
		tr.Note("arm-rerun-skipped")
		return
	}
	endRerun := tr.StartSpan("arm-rerun")
	rec := obs.NewFlightRecorder(s.opts.FlightEvents)
	_, _, rerunErr := p.Run(ctx, rec, r.Output == "agg")
	endRerun()
	s.Metrics.ArmReruns.Inc()
	if rerunErr != nil {
		// A partial window is still evidence; attach what was captured.
		tr.Note("arm-rerun-error")
	}
	tr.SetFlight(obs.NewFlightDump(rec, auditor, true))
	s.opts.Logger.Warn("arm policy triggered",
		"request_id", tr.ID(),
		"reason", reason,
		"intra_max", o.IntraMax,
		"intra_bound", o.IntraBound,
	)
}

// measureSkewEnvelope fills o's skew fields with the run's worst
// layer-by-layer excursion relative to the Theorem-1 envelope: the layer
// whose measured intra skew exceeds its bound σℓ by the most, and the
// layer whose signed inter-layer range leaves its window
// [d− − σ_{ℓ−1}, d+ + σ_{ℓ−1}] by the most. delta0 is the layer-0 skew
// spread Δ0 the bounds are conditioned on (the source-offset spread).
func measureSkewEnvelope(o *obs.Outcome, w *analysis.Wave, width int, b delay.Bounds, delta0 sim.Time) {
	worstIntra := sim.Time(-sim.MaxTime)
	worstInter := sim.Time(-sim.MaxTime)
	layers := w.G.NumLayers()
	for l := 1; l < layers; l++ {
		if m := w.MaxIntraSkewLayer(l); m >= 0 {
			bound := theory.Theorem1IntraBound(l, width, b, delta0)
			o.SkewValid = true
			if m-bound > worstIntra {
				worstIntra = m - bound
				o.IntraMax, o.IntraBound = m, bound
			}
		}
		if lo, hi, ok := w.InterSkewRangeLayer(l); ok {
			sigmaPrev := delta0
			if l > 1 {
				sigmaPrev = theory.Theorem1IntraBound(l-1, width, b, delta0)
			}
			wLo, wHi := theory.Theorem1InterWindow(sigmaPrev, b)
			o.SkewValid = true
			excursion := sim.MaxOf(wLo-lo, hi-wHi)
			if excursion > worstInter {
				worstInter = excursion
				o.InterLo, o.InterHi = lo, hi
				o.InterLoBound, o.InterHiBound = wLo, wHi
			}
		}
	}
}
