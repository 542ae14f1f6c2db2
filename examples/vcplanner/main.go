// VC planner: a purely analytic use of the library (no simulation). Given a
// topology and a set of candidate VC arrangements, it reports which routing
// mechanisms each arrangement supports under FlexVC — safe, opportunistic or
// forbidden — whether the simulator admits it for PAR (core.Admit, the rule
// config.Validate applies) and the buffer savings relative to the classic
// fixed-order requirement. This reproduces the reasoning behind Tables I-IV for arbitrary
// configurations.
//
// Run with:
//
//	go run ./examples/vcplanner
package main

import (
	"fmt"
	"log"

	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

func main() {
	df, err := topology.NewBalancedDragonfly(8) // the paper's h=8 system
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %s (%d routers, %d nodes)\n\n", df.Name(), df.NumRouters(), df.NumNodes())

	// Candidate VC arrangements for request-reply traffic, from the minimum
	// upward. The classic distance-based requirement is a safe PAR path (the
	// longest reference path) in both virtual networks.
	candidates := []core.VCConfig{
		core.TwoClass(2, 1, 2, 1),
		core.TwoClass(3, 2, 2, 1),
		core.TwoClass(4, 2, 2, 1),
		core.TwoClass(4, 2, 4, 2),
		core.TwoClass(5, 2, 5, 2),
	}
	valRef, parRef := core.Reference(df, core.ModeVAL), core.Reference(df, core.ModePAR)
	classic := core.FromHopCount(parRef.Hops())
	classic = classic.Add(classic)

	fmt.Printf("%-16s %-24s %-24s %-14s %s\n", "VCs (req+rep)", "VAL (request/reply)", "PAR (request/reply)", "FlexVC PAR", "buffer vs "+classic.String())
	for _, cfg := range candidates {
		val := fmt.Sprintf("%s / %s",
			core.Classify(cfg, packet.Request, valRef), core.Classify(cfg, packet.Reply, valRef))
		par := fmt.Sprintf("%s / %s",
			core.Classify(cfg, packet.Request, parRef), core.Classify(cfg, packet.Reply, parRef))
		admitted := "admitted"
		if err := core.Admit(core.Scheme{Policy: core.FlexVC, VCs: cfg}, df, core.ModePAR, true); err != nil {
			admitted = "rejected"
		}
		total := cfg.Total()
		saving := 1 - float64(total.Local+total.Global)/float64(classic.Local+classic.Global)
		fmt.Printf("%-16s %-24s %-24s %-14s %8.0f%%\n", cfg, val, par, admitted, 100*saving)
	}

	fmt.Println("\nA 5/3 arrangement (3/2 requests + 2/1 replies) keeps Valiant and PAR")
	fmt.Println("usable opportunistically with half the buffers of the classic scheme;")
	fmt.Println("4/2+2/1 is the arrangement the paper uses for adaptive routing (Fig. 8).")
}
