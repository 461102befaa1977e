// Package core implements the paper's primary contribution: the HEX pulse
// forwarding algorithm (Algorithm 1 / the asynchronous state machines of
// Fig. 7) and the discrete-event network simulation that executes it on a
// layered topology with configurable delays, faults, layer-0 schedules and
// initial states.
package core

import (
	"fmt"

	"repro/internal/delay"
	"repro/internal/sim"
)

// GuardMode selects the firing guard of a node.
type GuardMode uint8

const (
	// GuardAdjacent is Algorithm 1's guard: trigger on memorized messages
	// from (left and lower-left) or (lower-left and lower-right) or
	// (lower-right and right) neighbors.
	GuardAdjacent GuardMode = iota
	// GuardAnyTwo is an ablation: trigger on any two memorized messages,
	// regardless of adjacency. It is *not* Byzantine-safe (a single faulty
	// left neighbor plus a slow wave can cause false pulses) and exists to
	// quantify why the paper insists on adjacent pairs.
	GuardAnyTwo
)

// String names the guard mode.
func (m GuardMode) String() string {
	switch m {
	case GuardAdjacent:
		return "adjacent-pair"
	case GuardAnyTwo:
		return "any-two"
	}
	return fmt.Sprintf("GuardMode(%d)", uint8(m))
}

// Params are the HEX algorithm parameters of one simulation.
//
// Timers are inaccurate: every started link timer draws its duration
// uniformly from [TLinkMin, TLinkMax] and every sleep timer from
// [TSleepMin, TSleepMax], modelling the clock drift bound ϑ of Condition 2
// (T+ = ϑT−).
type Params struct {
	// Bounds is the fault-free link delay interval [d−, d+].
	Bounds delay.Bounds
	// TLinkMin/TLinkMax bound how long a received trigger message is
	// memorized. TLinkMax == 0 disables link timers entirely: flags are
	// then only cleared on wake-up (the original HEX of [33], used as an
	// ablation and for single-pulse runs, where (C1) is trivially met).
	TLinkMin, TLinkMax sim.Time
	// TSleepMin/TSleepMax bound the sleep period after firing.
	TSleepMin, TSleepMax sim.Time
	// Guard selects the firing guard; zero value is Algorithm 1's guard.
	Guard GuardMode
}

// LinkTimersEnabled reports whether memory flags expire on their own.
func (p Params) LinkTimersEnabled() bool { return p.TLinkMax > 0 }

// MaxEventDelta reports the largest scheduling delta of the algorithm's
// *frequent* events: link delays and link-timer expiries. It sizes the
// engine's event-queue tick (sim.Engine.SetHorizonHint) so the events of
// a wave front spread over many ticks and all of them fit the near ring.
// Sleep timers are deliberately excluded — they are orders of magnitude
// longer and one per firing, and take the queue's far FIFO; including
// them would stretch the tick until every in-flight delivery shared one.
func (p Params) MaxEventDelta() sim.Time {
	d := p.Bounds.Max
	if p.LinkTimersEnabled() && p.TLinkMax > d {
		d = p.TLinkMax
	}
	return d
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	if err := p.Bounds.Validate(); err != nil {
		return err
	}
	if p.LinkTimersEnabled() && (p.TLinkMin <= 0 || p.TLinkMin > p.TLinkMax) {
		return fmt.Errorf("core: need 0 < TLinkMin ≤ TLinkMax, got [%v, %v]", p.TLinkMin, p.TLinkMax)
	}
	if p.TSleepMin <= 0 || p.TSleepMin > p.TSleepMax {
		return fmt.Errorf("core: need 0 < TSleepMin ≤ TSleepMax, got [%v, %v]", p.TSleepMin, p.TSleepMax)
	}
	return nil
}

// DefaultParams returns parameters suitable for single-pulse experiments
// with the paper's delay interval: link timers disabled and a sleep period
// long enough that no node can be triggered twice within one wave
// (constraints (C1) and (C2) of Section 3.1 are then satisfied by
// construction).
func DefaultParams() Params {
	return Params{
		Bounds:    delay.Paper,
		TSleepMin: sim.Millisecond,
		TSleepMax: sim.Millisecond,
	}
}
