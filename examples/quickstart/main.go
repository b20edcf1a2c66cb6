// Quickstart: build an EquiNox design for an 8×8 interposer-based
// throughput processor and compare it against the SeparateBase baseline on
// one benchmark — the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"equinox"
	"equinox/internal/sim"
)

func main() {
	log.SetFlags(0)

	// 1. Run the design flow: N-Queen CB placement + MCTS EIR selection.
	dcfg := equinox.DefaultDesignConfig()
	dcfg.MCTS.IterationsPerLevel = 300 // the default is 400; either takes milliseconds
	design, err := equinox.Design(dcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EquiNox design (C = cache bank, digits = its EIR group):")
	fmt.Println(design)
	rep := design.Summarize()
	fmt.Printf("%d EIRs over %d interposer links, %d RDL crossings, %d µbumps\n\n",
		rep.EIRs, rep.Links, rep.Crossings, rep.Bumps)

	// 2. Simulate the kmeans benchmark on both schemes.
	for _, scheme := range []sim.SchemeKind{sim.SeparateBase, sim.EquiNox} {
		res, err := equinox.RunBenchmark(equinox.RunConfig{
			Scheme:            scheme,
			Benchmark:         "kmeans",
			Design:            design,
			InstructionsPerPE: 600,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s exec %8.0f ns  IPC %5.2f  energy %8.0f pJ  EDP %.3e\n",
			scheme, res.ExecNS, res.IPC, res.Energy.TotalPJ(), res.EDP())
	}

	// 3. The same design flow scales to larger meshes.
	big, err := equinox.DesignForMesh(12, 12, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n12×12 design: %d EIRs, crossings=%d, all-2-hop=%v\n",
		big.EIRCount(), big.Summarize().Crossings, big.Summarize().AllTwoHop)
}
