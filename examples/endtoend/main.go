// End to end: the full system the paper envisions. A Byzantine
// fault-tolerant pulse generation network (the role the paper assigns to
// DARTS/FATAL+) synchronizes the layer-0 clock sources by message passing;
// the HEX grid forwards the pulses upward — with Byzantine faults injected
// among both the sources and the forwarding nodes.
package main

import (
	"context"
	"fmt"
	"log"

	hex "repro"
	"repro/internal/analysis"
	"repro/internal/delay"
	"repro/internal/fault"
	"repro/internal/pulsegen"
	"repro/internal/stats"
	"repro/internal/theory"
)

func main() {
	const L, W = 50, 20
	g, err := hex.NewGrid(L, W)
	if err != nil {
		log.Fatal(err)
	}
	b := hex.PaperBounds
	to := hex.Condition2(4*b.Max, b, L, 2, hex.PaperDrift)

	// 1. Generate pulses with a Srikanth–Toueg-style source network:
	//    two Byzantine sources actively spamming votes.
	faultySources := []int{4, 13}
	gen, err := pulsegen.Run(pulsegen.Config{
		N:              W,
		Faulty:         faultySources,
		AssumedFaults:  2,
		Period:         to.Separation + 4*b.Max,
		Pulses:         8,
		Bounds:         b,
		Drift:          theory.Drift{Num: 1001, Den: 1000}, // 1000 ppm oscillators
		Seed:           7,
		ByzantineEager: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("layer-0 pulse generation (20 sources, 2 Byzantine, eager):")
	fmt.Printf("  max source skew %v, min pulse separation %v\n", gen.MaxSkew(), gen.MinSeparation())

	// 2. Forward through the HEX grid with two more Byzantine forwarders.
	plan := hex.NewFaultPlan(g)
	for _, c := range faultySources {
		plan.SetBehavior(g.NodeID(0, c), hex.FailSilent)
	}
	rng := hex.NewRNG(7)
	var candidates []int
	for l := 1; l <= L; l++ {
		candidates = append(candidates, g.Layer(l)...)
	}
	if _, err := fault.Place(context.Background(), g.Graph, plan, 2, candidates, hex.Byzantine, rng); err != nil {
		log.Fatal(err)
	}

	res, err := hex.RunPulseTrain(g, plan, gen.Schedule(), to, 7)
	if err != nil {
		log.Fatal(err)
	}
	pa := analysis.AssignPulses(g.Graph, res, plan, gen.Schedule(), delay.Paper)

	fmt.Println("\nHEX forwarding (2 Byzantine forwarders on top):")
	for k, w := range pa.Waves {
		s := stats.Summarize(w.IntraSkews())
		fmt.Printf("  pulse %d: intra skew avg %.3f / q95 %.3f / max %.3f ns, %d nodes\n",
			k+1, s.Avg, s.Q95, s.Max, w.TriggeredCount())
	}
	fmt.Println("\nevery correct node forwarded every pulse; faults cost only local skew.")
}
