// Command equinox-sim runs one full-system simulation: one of the paper's
// seven schemes on one of the 29 benchmarks, and prints the complete
// measurement set (execution time, IPC, latency breakdown, energy, area).
//
// Usage:
//
//	equinox-sim [-scheme EquiNox] [-bench kmeans] [-width 8] [-height 8]
//	            [-cbs 8] [-instr 1200] [-seed 1]
//	equinox-sim -list     # list schemes and benchmarks
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"equinox"
	"equinox/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("equinox-sim: ")
	var (
		scheme = flag.String("scheme", "EquiNox", "scheme to simulate")
		bench  = flag.String("bench", "kmeans", "benchmark name")
		width  = flag.Int("width", 8, "mesh width")
		height = flag.Int("height", 8, "mesh height")
		cbs    = flag.Int("cbs", 8, "number of cache banks")
		instr  = flag.Int("instr", 1200, "instructions per PE")
		seed   = flag.Int64("seed", 1, "simulation seed")
		list   = flag.Bool("list", false, "list schemes and benchmarks")
	)
	flag.Parse()

	if *list {
		fmt.Println("Schemes:")
		for _, s := range sim.AllSchemes() {
			fmt.Printf("  %s\n", s)
		}
		fmt.Println("Benchmarks:")
		for _, b := range equinox.Benchmarks() {
			fmt.Printf("  %s\n", b)
		}
		return
	}

	s, ok := sim.ParseScheme(*scheme)
	if !ok {
		log.Printf("unknown scheme %q (use -list)", *scheme)
		os.Exit(2)
	}
	rc := equinox.RunConfig{
		Scheme: s, Benchmark: *bench,
		Width: *width, Height: *height, NumCBs: *cbs,
		InstructionsPerPE: *instr, Seed: *seed,
	}
	if s == sim.EquiNox {
		d, err := equinox.DesignForMesh(*width, *height, *cbs)
		if err != nil {
			log.Fatal(err)
		}
		rc.Design = d
	}
	res, err := equinox.RunBenchmark(rc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheme:            %v\n", res.Scheme)
	fmt.Printf("benchmark:         %s\n", res.Benchmark)
	fmt.Printf("execution:         %d cycles (%.1f ns)\n", res.ExecCycles, res.ExecNS)
	fmt.Printf("instructions:      %d (IPC %.3f)\n", res.Instructions, res.IPC)
	fmt.Printf("request latency:   queue %.2f ns + network %.2f ns\n", res.ReqQueueNS, res.ReqNetNS)
	fmt.Printf("reply latency:     queue %.2f ns + network %.2f ns\n", res.RepQueueNS, res.RepNetNS)
	fmt.Printf("reply bit share:   %.1f%%\n", res.ReplyBitShare*100)
	fmt.Printf("L1 / L2 hit rate:  %.1f%% / %.1f%%\n", res.L1HitRate*100, res.L2HitRate*100)
	fmt.Printf("NoC energy:        %s\n", res.Energy)
	fmt.Printf("NoC area:          %.3f mm²\n", res.AreaMM2)
	fmt.Printf("EDP:               %.3e pJ·ns\n", res.EDP())
}
