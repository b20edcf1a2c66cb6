package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"equinox"
	"equinox/internal/flight"
	"equinox/internal/gpu"
	"equinox/internal/hbm"
	"equinox/internal/noc"
	"equinox/internal/placement"
	"equinox/internal/sim"
	"equinox/internal/stats"
	"equinox/internal/telemetry"
	"equinox/internal/traffic"
	"equinox/internal/workloads"
)

func nocKernelConfig() (noc.Config, traffic.FewToMany, error) {
	pl, err := placement.New(placement.Diamond, 8, 8, 8)
	if err != nil {
		return noc.Config{}, traffic.FewToMany{}, err
	}
	cfg := noc.DefaultConfig("reply", 8, 8)
	cfg.CBs = pl.CBs
	return cfg, traffic.FewToMany{W: 8, H: 8, CBs: pl.CBs, Typ: noc.ReadReply}, nil
}

// nocKernel drives one mesh with few-to-many read replies at a fixed
// offered load for a fixed number of cycles, then drains it.
type nocKernelResult struct {
	elapsed time.Duration
	cycles  int
	mallocs float64
	stats   noc.Stats
	drained bool
}

func nocKernel(cfg noc.Config, pat traffic.FewToMany, load float64, cycles int, seed int64) (nocKernelResult, error) {
	n, err := noc.New(cfg)
	if err != nil {
		return nocKernelResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	srcs := pat.Sources()
	prob := load / float64(noc.SizeInFlits(pat.Typ, cfg.FlitBytes, cfg.LineBytes))
	var free []*noc.Packet // delivered packets are reused, so the driver allocates only while ramping up
	step := func(inject bool) {
		if inject {
			for range srcs {
				if rng.Float64() >= prob {
					continue
				}
				src, dst, typ := pat.Pair(rng)
				var p *noc.Packet
				if k := len(free); k > 0 {
					p, free = free[k-1], free[:k-1]
				} else {
					p = &noc.Packet{}
				}
				*p = noc.Packet{Type: typ, Src: src, Dst: dst}
				if !n.TryInject(p, n.Now()) {
					free = append(free, p)
				}
			}
		}
		for node := 0; node < cfg.Nodes(); node++ {
			for p := n.PopDelivered(node); p != nil; p = n.PopDelivered(node) {
				free = append(free, p)
			}
		}
		n.Step()
	}
	for i := 0; i < cycles/5; i++ { // ramp up to the steady state first
		step(true)
	}
	m0, _ := mallocs()
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		step(true)
	}
	res := nocKernelResult{elapsed: time.Since(t0), cycles: cycles}
	m1, _ := mallocs()
	res.mallocs = m1 - m0
	for i := 0; i < 20000 && !n.Quiescent(); i++ {
		step(false)
	}
	step(false)
	res.stats = n.Stats
	res.drained = n.Quiescent()
	return res, nil
}

func ladderNoc(ls layerSet, e env, rec *recorder) {
	cfg, pat, err := nocKernelConfig()
	if !rec.check(err == nil, "noc kernel: %v", err) {
		return
	}
	ls.set("noc.new_us", us(timeReps(20, func() { _, _ = noc.New(cfg) })))
	cycles := e.pick(12000, 2000)
	for _, k := range []struct {
		tag  string
		load float64
	}{{"heavy", nocHeavyLoad}, {"light", nocLightLoad}} {
		r, err := nocKernel(cfg, pat, k.load, cycles, e.seed)
		if !rec.check(err == nil, "noc kernel %s: %v", k.tag, err) {
			continue
		}
		c := noc.ClassOf(pat.Typ)
		rec.check(r.drained && r.stats.Injected[c] == r.stats.Delivered[c],
			"noc kernel %s: injected %d, delivered %d, drained %v", k.tag, r.stats.Injected[c], r.stats.Delivered[c], r.drained)
		ls.set("noc.step_ns."+k.tag, float64(r.elapsed.Nanoseconds())/float64(r.cycles))
		if k.tag == "heavy" {
			ls.set("noc.flit_hops_per_s.heavy", float64(r.stats.FlitHops)/r.elapsed.Seconds())
			ls.set("noc.mallocs_per_kcycle.heavy", r.mallocs/float64(r.cycles)*1e3)
			ls.set("noc.flit_hops.heavy", float64(r.stats.FlitHops))
			ls.set("noc.delivered.heavy", float64(r.stats.Delivered[c]))
			ls.set("noc.avg_queue_cycles.heavy", r.stats.AvgQueueCycles(c))
			ls.set("noc.avg_net_cycles.heavy", r.stats.AvgNetCycles(c))
		}
	}
}

// kernelProfile is the benchmark profile the ladder's kernels and runs use.
func kernelProfile() workloads.Profile {
	p, err := workloads.ByName("kmeans")
	if err != nil {
		panic("bench: the suite has no kmeans profile: " + err.Error()) // the suite is a fixed table
	}
	return p
}

// nextMem returns the generator's next memory operation.
func nextMem(g *workloads.Generator) workloads.Op {
	for {
		if op := g.Next(); op.IsMem {
			return op
		}
	}
}

func ladderGPU(ls layerSet, e env, rec *recorder) {
	prof := kernelProfile()
	cycles := e.pick(20000, 4000)
	const numPEs, latency = 56, 40

	// 56 PEs against a memory system that accepts every request and answers
	// after a fixed latency.
	pes := make([]*gpu.PE, numPEs)
	for i := range pes {
		pe, err := gpu.NewPE(i, gpu.DefaultPEConfig(), prof.NewGenerator(i, 1<<30, e.seed))
		if !rec.check(err == nil, "gpu kernel: %v", err) {
			return
		}
		pes[i] = pe
	}
	type reply struct {
		pe   int
		line uint64
	}
	ring := make([][]reply, latency)
	now := 0
	inject := func(tx *gpu.Transaction) bool {
		slot := (now + latency - 1) % latency
		ring[slot] = append(ring[slot], reply{tx.PE, tx.Line})
		return true
	}
	t0 := time.Now()
	for now = 0; now < cycles; now++ {
		slot := now % latency
		for _, r := range ring[slot] {
			pes[r.pe].Complete(r.line)
		}
		ring[slot] = ring[slot][:0]
		for _, pe := range pes {
			pe.Step(inject)
		}
	}
	ls.set("gpu.pe_step_ns", float64(time.Since(t0).Nanoseconds())/float64(cycles*numPEs))

	// One cache bank fed a request whenever it can take one.
	cb, err := gpu.NewCB(0, gpu.DefaultCBConfig())
	if !rec.check(err == nil, "gpu kernel: %v", err) {
		return
	}
	gen := prof.NewGenerator(0, 1<<30, e.seed)
	var tx *gpu.Transaction
	t0 = time.Now()
	for c := int64(0); c < int64(cycles); c++ {
		if tx == nil {
			op := nextMem(gen)
			tx = &gpu.Transaction{Addr: op.Addr, Write: op.Write, Line: op.Addr / workloads.LineBytes}
		}
		if cb.ProcessRequest(tx, c) {
			tx = nil
		}
		cb.Step(c)
		for cb.PopReply() != nil {
		}
	}
	ls.set("gpu.cb_req_ns", float64(time.Since(t0).Nanoseconds())/float64(cycles))
}

func ladderHBM(ls layerSet, e env, rec *recorder) {
	cfg := hbm.DefaultConfig()
	mc, err := hbm.NewController(cfg)
	if !rec.check(err == nil, "hbm kernel: %v", err) {
		return
	}
	gen := kernelProfile().NewGenerator(0, 1<<30, e.seed)
	cycles := e.pick(60000, 10000)
	served := 0
	t0 := time.Now()
	for c := int64(0); c < int64(cycles); c++ {
		for mc.QueueSpace() > cfg.QueueDepth/2 { // hold the queue half full
			op := nextMem(gen)
			mc.Enqueue(&hbm.Request{Addr: op.Addr, Write: op.Write}, c)
		}
		served += len(mc.Step(c))
	}
	ls.set("hbm.step_ns", float64(time.Since(t0).Nanoseconds())/float64(cycles))
	ls.set("hbm.row_hit_rate", mc.RowHitRate())
	ls.set("hbm.avg_latency_cycles", mc.AvgLatency())
	rec.check(served > 0, "hbm kernel served nothing")
}

func ladderWorkloads(ls layerSet, e env, rec *recorder) {
	n := e.pick(1_000_000, 200_000)
	gen := kernelProfile().NewGenerator(0, n, e.seed)
	mem := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if gen.Next().IsMem {
			mem++
		}
	}
	ls.set("workloads.next_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	rec.check(mem > 0, "workload generator produced no memory operations")
}

// ladderSim runs every scheme once on kmeans: the terms of the simulator
// workloads' throughput, with construction apart from the cycle loop.
func ladderSim(ls layerSet, e env, rec *recorder) {
	prof := kernelProfile()
	d, err := equinox.DesignForMesh(8, 8, 8)
	if !rec.check(err == nil, "sim rung: %v", err) {
		return
	}
	instr := e.pick(100, 40)
	var rates []float64
	var cyclesAll, instrAll, mallocsAll, bytesAll, secsAll float64
	for _, s := range sim.AllSchemes() {
		cfg := simConfig(s, d, instr, e.seed)
		var sys *sim.System
		newT := timeReps(3, func() { sys, err = sim.NewSystem(cfg, prof) })
		if !rec.check(err == nil, "sim rung %v: %v", s, err) {
			continue
		}
		m0, b0 := mallocs()
		t0 := time.Now()
		res, err := sys.RunToCompletion()
		el := time.Since(t0).Seconds()
		m1, b1 := mallocs()
		if !rec.check(err == nil, "sim rung %v: %v", s, err) {
			continue
		}
		checkSimResult(rec, cfg, res, sys.Networks())
		data, _ := json.Marshal(res)
		rec.output(fmt.Sprintf("ladder/sim/%v", s), data)
		ls.set("sim.new_system_ms."+s.String(), ms(newT))
		ls.set("sim.cycles_per_s."+s.String(), float64(res.ExecCycles)/el)
		ls.set("sim.exec_cycles."+s.String(), float64(res.ExecCycles))
		rates = append(rates, float64(res.ExecCycles)/el)
		cyclesAll += float64(res.ExecCycles)
		instrAll += float64(res.Instructions)
		mallocsAll += m1 - m0
		bytesAll += b1 - b0
		secsAll += el
		switch s {
		case sim.SingleBase:
			ls.set("sim.rep_queue_ns.SingleBase", res.RepQueueNS)
			ls.set("gpu.l1_hit_rate", res.L1HitRate)
			ls.set("gpu.l2_hit_rate", res.L2HitRate)
		case sim.EquiNox:
			ls.set("sim.rep_queue_ns.EquiNox", res.RepQueueNS)
		}
	}
	if g := stats.GeoMean(rates); g > 0 {
		ls.set("sim.step_ns", 1e9/g)
	}
	if secsAll > 0 {
		ls.set("sim.instr_per_s", instrAll/secsAll)
		ls.set("sim.mallocs_per_kcycle", mallocsAll/cyclesAll*1e3)
		ls.set("sim.alloc_mb_per_run", bytesAll/1e6/float64(len(rates)))
	}
}

// ladderInstruments times EquiNox on kmeans plain and with each observer
// attached, interleaved. Differences of a few percent need many traced runs
// to resolve; one run only shows gross regressions.
func ladderInstruments(ls layerSet, e env, rec *recorder) {
	prof := kernelProfile()
	d, err := equinox.DesignForMesh(8, 8, 8)
	if !rec.check(err == nil, "instrument rung: %v", err) {
		return
	}
	cfg := simConfig(sim.EquiNox, d, e.pick(100, 40), e.seed)
	variants := []struct {
		name   string
		attach func(*sim.System)
	}{
		{"plain", func(*sim.System) {}},
		{"probe", func(s *sim.System) { s.AttachProbes(64) }},
		{"telemetry", func(s *sim.System) { s.AttachTelemetry(telemetry.Options{}) }},
		{"flight", func(s *sim.System) { s.AttachFlight(flight.Options{}) }},
	}
	times := map[string][]float64{}
	var plainCycles int64
	for round := 0; round < 3; round++ {
		for _, v := range variants {
			sys, err := sim.NewSystem(cfg, prof)
			if !rec.check(err == nil, "instrument rung: %v", err) {
				return
			}
			v.attach(sys)
			t0 := time.Now()
			res, err := sys.RunToCompletion()
			times[v.name] = append(times[v.name], time.Since(t0).Seconds())
			if !rec.check(err == nil, "instrument rung %s: %v", v.name, err) {
				return
			}
			if v.name == "plain" {
				plainCycles = res.ExecCycles
			}
			rec.check(res.ExecCycles == plainCycles, "%s changed the simulated cycle count: %d, plain %d", v.name, res.ExecCycles, plainCycles)
		}
	}
	plain := median(times["plain"])
	for _, v := range variants[1:] {
		ls.set(v.name+".overhead_frac", median(times[v.name])/plain-1)
	}
}

// ladderPar times the parallel stepper (Config.Parallel = 2) against the
// serial one on a 16×16 mesh, with nothing else running.
func ladderPar(ls layerSet, e env, rec *recorder) {
	prof := kernelProfile()
	big := sim.DefaultConfig(sim.SingleBase)
	big.Width, big.Height, big.NumCBs = 16, 16, 16
	big.InstructionsPerPE = e.pick(20, 8)
	big.Seed = e.seed
	var wall [2]float64
	var cycles [2]int64
	for i, par := range []int{0, 2} {
		big.Parallel = par
		t0 := time.Now()
		res, err := sim.Run(big, prof)
		wall[i] = time.Since(t0).Seconds()
		cycles[i] = res.ExecCycles
		if !rec.check(err == nil, "parallel stepper (Parallel=%d): %v", par, err) {
			return
		}
	}
	rec.check(cycles[0] == cycles[1], "parallel stepper changed the cycle count: %d serial, %d parallel", cycles[0], cycles[1])
	ls.set("par.speedup_p2", wall[0]/wall[1])
}
