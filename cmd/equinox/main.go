// Command equinox regenerates the paper's experiments, and serves them,
// from one binary:
//
//	equinox sim      one full-system simulation and its measurement set (§5)
//	equinox eval     the §6 evaluation sweep: Table 1, Figures 9–12, §6.6
//	equinox design   the §4 design flow, printed as a floor plan and report
//	equinox heatmap  Figure 4's placement heat maps and hot-zone scores
//	equinox sweep    open-loop load–latency curves under synthetic traffic
//	equinox viz      the floor plan and Figure 4 heat maps as SVG
//	equinox trace    per-packet tail latencies, flight events, job artifacts
//	equinox serve    the evaluation-as-a-service HTTP server
//	equinox worker   a remote fleet worker for a serve coordinator
//
// The six experiment commands, sim through viz, take -width and -height,
// and all of them but sweep take -cbs; trace simulates the paper's 8×8
// point, and serve and worker take their mesh from each job's spec.
// `equinox <command> -h` lists the rest, e.g. `equinox eval -fig9a
// -benchmarks kmeans,bfs` or `equinox sim -list`.
//
// The first SIGINT or SIGTERM cancels the command's context: sim, eval and
// trace stop at the next simulator cancellation check, serve drains its
// in-flight jobs, and worker abandons its leased units. A second one kills
// the process; design, heatmap, sweep and viz never check the context, so
// they need it.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"equinox"
	"equinox/internal/core"
	"equinox/internal/noc"
	"equinox/internal/placement"
	"equinox/internal/sim"
	"equinox/internal/stats"
	"equinox/internal/traffic"
	"equinox/internal/viz"
)

// A command defines its flags on fs and returns the action that runs once
// they are parsed. The action's context is cancelled by SIGINT/SIGTERM.
type command func(fs *flag.FlagSet) func(ctx context.Context, stdout io.Writer) error

var commands = map[string]command{
	"sim":     simCommand,
	"eval":    evalCommand,
	"design":  designCommand,
	"heatmap": heatmapCommand,
	"sweep":   sweepCommand,
	"viz":     vizCommand,
	"trace":   traceCommand,
	"serve":   serveCommand,
	"worker":  workerCommand,
}

// errUsage reports an invocation that has already been rejected on stderr;
// main exits 2 for it, as the flag package does for a bad flag.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("equinox: ")
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // the next signal gets the default handling
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run parses args — a command name and its flags — and executes one
// invocation, writing its report to stdout. Files named by flags are written
// directly; progress is logged with the prefix "equinox <command>: ".
func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintf(os.Stderr, "usage: equinox %s [flags]\n", strings.Join(commandNames(), "|"))
		return errUsage
	}
	fs := flag.NewFlagSet("equinox "+args[0], flag.ExitOnError)
	action := commands[args[0]](fs)
	fs.Parse(args[1:]) // ExitOnError: -h exits 0, a bad flag 2
	log.SetPrefix(fs.Name() + ": ")
	return action(ctx, stdout)
}

// commandNames returns the names of the commands, sorted.
func commandNames() []string {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// meshFlags defines -width, -height and -cbs at the paper's 8×8/8 point.
func meshFlags(fs *flag.FlagSet) (width, height, cbs *int) {
	return fs.Int("width", 8, "mesh width"), fs.Int("height", 8, "mesh height"),
		fs.Int("cbs", 8, "number of cache banks")
}

// parseSearch resolves the -search flag of design and viz. An unknown name
// is logged with the usage text and returns errUsage.
func parseSearch(fs *flag.FlagSet, name string) (core.SearchStrategy, error) {
	switch name {
	case "mcts":
		return core.SearchMCTS, nil
	case "greedy":
		return core.SearchGreedyTwoHop, nil
	case "random":
		return core.SearchRandom, nil
	}
	log.Printf("unknown search %q", name)
	fs.Usage()
	return 0, errUsage
}

// simCommand simulates one scheme on one benchmark — a one-cell sweep — and
// prints the complete measurement set.
func simCommand(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	var (
		scheme             = fs.String("scheme", "EquiNox", "scheme to simulate")
		bench              = fs.String("bench", "kmeans", "benchmark name")
		width, height, cbs = meshFlags(fs)
		instr              = fs.Int("instr", 1200, "instructions per PE")
		seed               = fs.Int64("seed", 1, "simulation seed")
		list               = fs.Bool("list", false, "list schemes and benchmarks")
	)
	return func(ctx context.Context, stdout io.Writer) error {
		if *list {
			fmt.Fprintln(stdout, "Schemes:")
			for _, s := range sim.AllSchemes() {
				fmt.Fprintf(stdout, "  %s\n", s)
			}
			fmt.Fprintln(stdout, "Benchmarks:")
			for _, b := range equinox.Benchmarks() {
				fmt.Fprintf(stdout, "  %s\n", b)
			}
			return nil
		}
		s, ok := sim.ParseScheme(*scheme)
		if !ok {
			log.Printf("unknown scheme %q (use -list)", *scheme)
			return errUsage
		}
		ev, err := equinox.RunEvaluationContext(ctx, equinox.EvalConfig{
			Width: *width, Height: *height, NumCBs: *cbs,
			Schemes:           []sim.SchemeKind{s},
			Benchmarks:        []string{*bench},
			InstructionsPerPE: *instr,
			Seed:              *seed,
		})
		if err == nil && len(ev.Errors) > 0 {
			err = ev.Errors[0]
		}
		if err != nil {
			return err
		}
		res, _ := ev.Result(s, *bench)
		fmt.Fprintf(stdout, "scheme:            %v\n", res.Scheme)
		fmt.Fprintf(stdout, "benchmark:         %s\n", res.Benchmark)
		fmt.Fprintf(stdout, "execution:         %d cycles (%.1f ns)\n", res.ExecCycles, res.ExecNS)
		fmt.Fprintf(stdout, "instructions:      %d (IPC %.3f)\n", res.Instructions, res.IPC)
		fmt.Fprintf(stdout, "request latency:   queue %.2f ns + network %.2f ns\n", res.ReqQueueNS, res.ReqNetNS)
		fmt.Fprintf(stdout, "reply latency:     queue %.2f ns + network %.2f ns\n", res.RepQueueNS, res.RepNetNS)
		fmt.Fprintf(stdout, "reply bit share:   %.1f%%\n", res.ReplyBitShare*100)
		fmt.Fprintf(stdout, "L1 / L2 hit rate:  %.1f%% / %.1f%%\n", res.L1HitRate*100, res.L2HitRate*100)
		fmt.Fprintf(stdout, "NoC energy:        %s\n", res.Energy)
		fmt.Fprintf(stdout, "NoC area:          %.3f mm²\n", res.AreaMM2)
		fmt.Fprintf(stdout, "EDP:               %.3e pJ·ns\n", res.EDP())
		return nil
	}
}

// evalCommand runs the §6 sweep — all seven schemes over the suite — and
// prints Table 1, Figures 9(a/b/c), 10 and 11, the §6.6 µbump comparison
// and the energy breakdown, or only the ones selected.
func evalCommand(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	var (
		width, height, cbs = meshFlags(fs)
		instr              = fs.Int("instr", 0, "instructions per PE (0 = default scale)")
		seed               = fs.Int64("seed", 1, "simulation seed")
		benchCSV           = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all 29)")
		par                = fs.Int("parallel", 0, "parallel simulations (0 = GOMAXPROCS)")

		table1 = fs.Bool("table1", false, "print only Table 1")
		fig9a  = fs.Bool("fig9a", false, "print only Figure 9(a)")
		fig9b  = fs.Bool("fig9b", false, "print only Figure 9(b)")
		fig9c  = fs.Bool("fig9c", false, "print only Figure 9(c)")
		fig10  = fs.Bool("fig10", false, "print only Figure 10")
		fig11  = fs.Bool("fig11", false, "print only Figure 11")
		ubumps = fs.Bool("ubumps", false, "print only the §6.6 µbump comparison")
		fig12  = fs.Bool("fig12", false, "also run the Figure 12 scalability study (slow)")
		asJSON = fs.String("json", "", "also write the raw results as JSON to this file")
		asMD   = fs.String("report", "", "also write a markdown report to this file")
		cfgIn  = fs.String("config", "", "load the evaluation configuration from this JSON file")
	)
	return func(ctx context.Context, stdout io.Writer) error {
		cfg := equinox.DefaultEvalConfig()
		if *cfgIn != "" {
			f, err := os.Open(*cfgIn)
			if err != nil {
				return err
			}
			cfg, err = equinox.LoadEvalConfig(f)
			f.Close()
			if err != nil {
				return err
			}
		} else {
			cfg.Width, cfg.Height, cfg.NumCBs = *width, *height, *cbs
			cfg.InstructionsPerPE = *instr
			cfg.Seed = *seed
			cfg.Parallelism = *par
			if *benchCSV != "" {
				cfg.Benchmarks = strings.Split(*benchCSV, ",")
			}
		}

		only := *table1 || *fig9a || *fig9b || *fig9c || *fig10 || *fig11 || *ubumps
		if *table1 && !(*fig9a || *fig9b || *fig9c || *fig10 || *fig11 || *ubumps) {
			// Table 1 needs no simulation.
			fmt.Fprintln(stdout, equinox.Table1(cfg))
			return nil
		}

		norm := cfg.Normalize()
		log.Printf("running %d schemes × %d benchmarks …", len(norm.Schemes), len(norm.Benchmarks))
		ev, err := equinox.RunEvaluationContext(ctx, cfg)
		if err != nil {
			return err
		}
		for _, e := range ev.Errors {
			log.Printf("warning: %v", e)
		}

		show := func(b bool) bool { return !only || b }
		if show(*table1) {
			fmt.Fprintln(stdout, equinox.Table1(cfg))
		}
		if show(*fig9a) {
			fmt.Fprintln(stdout, ev.Figure9a())
		}
		if show(*fig9b) {
			fmt.Fprintln(stdout, ev.Figure9b())
		}
		if show(*fig9c) {
			fmt.Fprintln(stdout, ev.Figure9c())
		}
		if show(*fig10) {
			fmt.Fprintln(stdout, ev.Figure10())
		}
		if show(*fig11) {
			fmt.Fprintln(stdout, ev.Figure11())
		}
		if show(*ubumps) {
			fmt.Fprintln(stdout, equinox.UbumpComparison(ev))
		}
		if !only {
			fmt.Fprintln(stdout, ev.EnergyBreakdownTable())
		}
		if *fig12 {
			log.Printf("running the scalability study …")
			pts, err := equinox.ScalabilityStudy(ctx, []int{8, 12, 16}, benchSubset(cfg.Benchmarks), 300, cfg.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, equinox.Figure12(pts))
		}
		if !only {
			fmt.Fprintf(stdout, "reply share of NoC bits (SeparateBase): %.1f%% (paper: 72.7%%)\n",
				ev.ReplyBitShare(sim.SeparateBase)*100)
		}
		for _, out := range []struct {
			path  string
			write func(io.Writer) error
		}{{*asJSON, ev.WriteJSON}, {*asMD, ev.WriteReport}} {
			if out.path == "" {
				continue
			}
			var buf bytes.Buffer
			if err := out.write(&buf); err != nil {
				return err
			}
			if err := os.WriteFile(out.path, buf.Bytes(), 0o644); err != nil {
				return err
			}
			log.Printf("wrote %s", out.path)
		}
		return nil
	}
}

// benchSubset trims the benchmark list for the slow scalability study.
func benchSubset(benches []string) []string {
	if len(benches) == 0 {
		return []string{"kmeans", "bfs", "hotspot"}
	}
	if len(benches) > 4 {
		return benches[:4]
	}
	return benches
}

// designCommand runs the §4 design flow — N-Queen CB placement, EIR search,
// interposer wiring plan — and prints the floor plan and the Figure 7 / §6.6
// style report.
func designCommand(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	var (
		width, height, cbs = meshFlags(fs)
		search             = fs.String("search", "mcts", "EIR search: mcts, greedy, random")
		iters              = fs.Int("iters", 400, "MCTS iterations per tree level")
		seed               = fs.Int64("seed", 42, "search seed")
	)
	return func(_ context.Context, stdout io.Writer) error {
		cfg := core.DefaultDesignConfig()
		cfg.Width, cfg.Height, cfg.NumCBs = *width, *height, *cbs
		cfg.MCTS.IterationsPerLevel = *iters
		cfg.MCTS.Seed = *seed
		var err error
		if cfg.Search, err = parseSearch(fs, *search); err != nil {
			return err
		}
		d, err := core.BuildDesign(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "EquiNox design for %dx%d mesh, %d CBs (%v search)\n\n", *width, *height, *cbs, cfg.Search)
		fmt.Fprintln(stdout, "Floor plan (C = cache bank, digit = EIR of group i, . = PE):")
		fmt.Fprintln(stdout, d)
		r := d.Summarize()
		fmt.Fprintf(stdout, "CBs:                 %d\n", r.CBs)
		fmt.Fprintf(stdout, "EIRs:                %d\n", r.EIRs)
		fmt.Fprintf(stdout, "Interposer links:    %d (all 2-hop: %v)\n", r.Links, r.AllTwoHop)
		fmt.Fprintf(stdout, "RDL crossings:       %d (layers needed: %d)\n", r.Crossings, r.RDLLayers)
		fmt.Fprintf(stdout, "µbumps:              %d (%.2f mm²)\n", r.Bumps, r.BumpAreaMM2)
		fmt.Fprintf(stdout, "Active interposer:   %v\n", r.ActiveInterpose)
		fmt.Fprintf(stdout, "Placement penalty:   %d\n", r.PlacementScore)
		fmt.Fprintf(stdout, "Evaluation cost:     %.4f\n", r.EvalCost)
		if d.SearchIters > 0 {
			fmt.Fprintf(stdout, "Search iterations:   %d\n", d.SearchIters)
		}
		return nil
	}
}

// heatmapCommand regenerates Figure 4 — per-router heat maps and variance
// of the five CB placements under few-to-many reply traffic — and the §4.2
// hot-zone penalty scores.
func heatmapCommand(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	var (
		width, height, cbs = meshFlags(fs)
		cycles             = fs.Int("cycles", 4000, "traffic cycles per placement")
		seed               = fs.Int64("seed", 1, "traffic seed")
	)
	return func(_ context.Context, stdout io.Writer) error {
		out, err := equinox.Figure4(*width, *height, *cbs, *cycles, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		scores, err := equinox.NQueenScores(*width, *height, *cbs)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, scores)
		return nil
	}
}

// sweepCommand measures open-loop load–latency curves of the mesh NoC under
// synthetic patterns; the few-to-many saturation point is the injection
// bottleneck the paper attacks.
func sweepCommand(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	var (
		width   = fs.Int("width", 8, "mesh width")
		height  = fs.Int("height", 8, "mesh height")
		pattern = fs.String("pattern", "uniform", "uniform, transpose, hotspot, f2m, m2f")
		loads   = fs.String("loads", "0.02,0.05,0.1,0.2,0.3,0.5", "offered loads (flits/node/cycle)")
		cycles  = fs.Int("cycles", 3000, "measured cycles per load point")
		seed    = fs.Int64("seed", 1, "traffic seed")
	)
	return func(_ context.Context, stdout io.Writer) error {
		var ls []float64
		for _, s := range strings.Split(*loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad load %q: %v", s, err)
			}
			ls = append(ls, v)
		}
		w, h := *width, *height
		var pat traffic.Pattern
		switch *pattern {
		case "uniform":
			pat = traffic.Uniform{W: w, H: h, Typ: noc.ReadReply}
		case "transpose":
			pat = traffic.Transpose{W: w, H: h, Typ: noc.ReadReply}
		case "hotspot":
			pat = traffic.Hotspot{W: w, H: h, Hot: (w*h - 1) / 2, HotFrac: 0.3, Typ: noc.ReadReply}
		case "f2m", "m2f":
			pl, err := placement.New(placement.NQueen, w, h, 8)
			if err != nil {
				return err
			}
			if *pattern == "f2m" {
				pat = traffic.FewToMany{W: w, H: h, CBs: pl.CBs, Typ: noc.ReadReply}
			} else {
				pat = traffic.ManyToFew{W: w, H: h, CBs: pl.CBs, Typ: noc.ReadRequest}
			}
		default:
			return fmt.Errorf("unknown pattern %q", *pattern)
		}
		pts, err := traffic.Sweep(traffic.SweepConfig{
			Net:        func() (*noc.Network, error) { return noc.New(noc.DefaultConfig("sweep", w, h)) },
			Pattern:    pat,
			Loads:      ls,
			WarmCycles: *cycles / 3,
			RunCycles:  *cycles,
			Seed:       *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pattern %s on %dx%d (flits per source node per cycle)\n\n", pat.Name(), w, h)
		fmt.Fprintln(stdout, "offered  accepted  avgLatency  saturated")
		for _, p := range pts {
			fmt.Fprintf(stdout, "%7.3f  %8.3f  %10.1f  %v\n", p.OfferedLoad, p.AcceptedLoad, p.AvgLatencyCycles, p.Saturated)
		}
		fmt.Fprintf(stdout, "\nsaturation load: %.3f flits/source/cycle\n", traffic.SaturationLoad(pts))
		return nil
	}
}

// vizCommand writes design.svg, the design's floor plan (Figure 7 style),
// and heatmaps.svg, the Figure 4 placement heat maps, into -out.
func vizCommand(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	var (
		out                = fs.String("out", ".", "output directory")
		width, height, cbs = meshFlags(fs)
		search             = fs.String("search", "greedy", "design search: mcts or greedy")
		cycles             = fs.Int("cycles", 3000, "heat map traffic cycles")
	)
	return func(_ context.Context, stdout io.Writer) error {
		cfg := core.DefaultDesignConfig()
		cfg.Width, cfg.Height, cfg.NumCBs = *width, *height, *cbs
		var err error
		if cfg.Search, err = parseSearch(fs, *search); err != nil {
			return err
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		design, err := core.BuildDesign(cfg)
		if err != nil {
			return err
		}
		rs, err := stats.PlacementHeatmaps(*width, *height, *cbs, *cycles, 1)
		if err != nil {
			return err
		}
		for _, f := range []struct{ name, svg string }{
			{"design.svg", viz.DesignSVG(design)},
			{"heatmaps.svg", viz.HeatmapsSVG(rs)},
		} {
			err := writeFile(stdout, filepath.Join(*out, f.name), func(w io.Writer) error {
				_, err := io.WriteString(w, f.svg)
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// writeFile creates path, fills it with write and reports it on stdout. An
// empty path (the output was not requested) writes nothing.
func writeFile(stdout io.Writer, path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", path)
	return nil
}
