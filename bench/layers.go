package main

import (
	"fmt"
	"time"

	"equinox/internal/sim"
)

// layerMetric declares one per-layer metric. The table below is the whole
// per_layer list of BENCHMARK.json (schema_test.go holds them together);
// every traced run reports every entry.
type layerMetric struct {
	name, unit, better string
}

// Offered load of the noc kernel, in flits per cycle per cache bank. A
// traffic.Sweep of traffic.FewToMany read replies over this 8×8 mesh accepts
// at least 0.9 of the offered load through 0.95 and traffic.SaturationLoad
// puts saturation at the injection-port bound of 1.0 — the paper's
// few-to-many bottleneck — so heavy and light are 0.9× and 0.1× of it.
const (
	nocHeavyLoad = 0.9
	nocLightLoad = 0.1
)

// paperExecNormEquiNox is Figure 9(a)'s EquiNox execution time normalised to
// SingleBase, from EXPERIMENTS.md.
const paperExecNormEquiNox = 0.523

func schemeMetrics(prefix, unit, better string) []layerMetric {
	var out []layerMetric
	for _, s := range sim.AllSchemes() {
		out = append(out, layerMetric{prefix + s.String(), unit, better})
	}
	return out
}

var layerMetricTable = func() []layerMetric {
	t := []layerMetric{
		// The traced window of the workload itself.
		{"window.ops", "count", "higher"},
		{"window.op_p50_ms", "ms", "lower"},
		{"window.traced_op_p50_ms", "ms", "lower"},
		{"window.op_tail_ms", "ms", "lower"},
		{"window.op_tail_pct", "%", "higher"},
		{"window.mallocs_per_op", "count", "lower"},
		{"window.alloc_kb_per_op", "KB", "lower"},
		{"window.self_frac.bench", "1", "lower"},
		{"window.self_frac.sim", "1", "lower"},
		{"window.self_frac.harness", "1", "lower"},
		{"window.self_frac.core", "1", "lower"},
		{"window.self_frac.service", "1", "lower"},
		{"window.self_frac.service_wait", "1", "lower"},
		{"trace.overhead_frac", "1", "lower"},
		{"trace.spans", "count", "lower"},
		{"sim.stats_drift", "count", "lower"},
		{"sim.stats_checked", "count", "higher"},

		// noc kernel.
		{"noc.new_us", "us", "lower"},
		{"noc.step_ns.heavy", "ns", "lower"},
		{"noc.step_ns.light", "ns", "lower"},
		{"noc.flit_hops_per_s.heavy", "1/s", "higher"},
		{"noc.mallocs_per_kcycle.heavy", "count", "lower"},
		{"noc.flit_hops.heavy", "count", "higher"},
		{"noc.delivered.heavy", "count", "higher"},
		{"noc.avg_queue_cycles.heavy", "cycles", "lower"},
		{"noc.avg_net_cycles.heavy", "cycles", "lower"},

		// gpu, hbm, workloads kernels.
		{"gpu.pe_step_ns", "ns", "lower"},
		{"gpu.cb_req_ns", "ns", "lower"},
		{"gpu.l1_hit_rate", "1", "higher"},
		{"gpu.l2_hit_rate", "1", "higher"},
		{"hbm.step_ns", "ns", "lower"},
		{"hbm.row_hit_rate", "1", "higher"},
		{"hbm.avg_latency_cycles", "cycles", "lower"},
		{"workloads.next_ns", "ns", "lower"},

		// sim rung.
		{"sim.step_ns", "ns", "lower"},
		{"sim.instr_per_s", "1/s", "higher"},
		{"sim.mallocs_per_kcycle", "count", "lower"},
		{"sim.alloc_mb_per_run", "MB", "lower"},
		{"sim.rep_queue_ns.SingleBase", "ns", "lower"},
		{"sim.rep_queue_ns.EquiNox", "ns", "lower"},

		// Instruments, each against a plain run of the same input.
		{"probe.overhead_frac", "1", "lower"},
		{"telemetry.overhead_frac", "1", "lower"},
		{"flight.overhead_frac", "1", "lower"},
		{"par.speedup_p2", "1", "higher"},

		// Root-package harness.
		{"harness.design_ms", "ms", "lower"},
		{"harness.eval_wall_s", "s", "lower"},
		{"harness.parallel_efficiency", "1", "higher"},
		{"harness.slowest_run_share", "1", "lower"},
		{"harness.write_json_ms", "ms", "lower"},
		{"harness.tables_ms", "ms", "lower"},
		{"fidelity.exec_norm.EquiNox", "1", "lower"},
		{"fidelity.exec_norm.Interposer-CMesh", "1", "lower"},
		{"fidelity.exec_norm.DA2Mesh", "1", "lower"},
		{"fidelity.paper_delta.EquiNox", "1", "lower"},

		// Design flow.
		{"placement.best_nqueen_ms.8", "ms", "lower"},
		{"placement.best_nqueen_ms.12", "ms", "lower"},
		{"mcts.search_s.8", "s", "lower"},
		{"mcts.search_s.12", "s", "lower"},
		{"mcts.evals_per_s", "1/s", "higher"},
		{"mcts.greedy_us", "us", "lower"},
		{"interposer.plan_ms", "ms", "lower"},
		{"core.build_design_s.8", "s", "lower"},
		{"design.links", "count", "higher"},
		{"design.crossings", "count", "lower"},
		{"design.max_eir_load", "1", "lower"},
		{"design.all_two_hop", "count", "higher"},
		{"design.placement_score", "count", "lower"},

		// Job server.
		{"service.spec_key_us", "us", "lower"},
		{"service.submit_rtt_p50_us", "us", "lower"},
		{"service.get_rtt_p50_us", "us", "lower"},
		{"service.cold_job_p50_ms", "ms", "lower"},
		{"service.overhead_ms", "ms", "lower"},
		{"service.queue_wait_mean_ms", "ms", "lower"},
		{"service.cache_hit_ratio", "1", "higher"},
		{"service.metrics_render_ms", "ms", "lower"},

		// Result store and journal.
		{"store.disk_put_us", "us", "lower"},
		{"store.disk_get_us", "us", "lower"},
		{"store.mem_get_ns", "ns", "lower"},
		{"store.tiered_miss_us", "us", "lower"},
		{"journal.submit_fsync_us", "us", "lower"},
		{"journal.replay_ms", "ms", "lower"},

		// Fleet.
		{"fleet.units_per_s", "1/s", "higher"},
		{"fleet.unit_rtt_mean_ms", "ms", "lower"},
		{"fleet.lease_rtt_p50_us", "us", "lower"},
		{"fleet.assemble_ms", "ms", "lower"},
	}
	t = append(t, schemeMetrics("sim.new_system_ms.", "ms", "lower")...)
	t = append(t, schemeMetrics("sim.cycles_per_s.", "1/s", "higher")...)
	t = append(t, schemeMetrics("sim.exec_cycles.", "cycles", "lower")...)
	return t
}()

// layerSet writes per-layer metrics into a result, refusing names the table
// does not declare.
type layerSet struct {
	m     map[string]metricValue
	units map[string]string
}

func newLayerSet(m map[string]metricValue) layerSet {
	ls := layerSet{m: m, units: map[string]string{}}
	for _, lm := range layerMetricTable {
		ls.units[lm.name] = lm.unit
		m[lm.name] = metricValue{0, lm.unit}
	}
	return ls
}

func (ls layerSet) set(name string, v float64) {
	unit, ok := ls.units[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	ls.m[name] = metricValue{v, unit}
}

// layerMetrics fills in every per-layer metric of a traced run: first what
// the traced window of the workload itself shows, then the ladder — each
// layer driven alone through its exported API with fixed input.
func layerMetrics(m map[string]metricValue, e env, rec *recorder, elapsed time.Duration, win windowCounts) layerSet {
	ls := newLayerSet(m)
	windowMetrics(ls, rec, win)
	start := time.Now()
	// Single-threaded rungs run with the other cores occupied, like set-up,
	// so that their host times are taken on the same contended host as the
	// end-to-end metrics (see eachCore). The others load the cores themselves.
	for _, rung := range []struct {
		name         string
		singleThread bool
		run          func(layerSet, env, *recorder)
	}{
		{"noc", true, ladderNoc}, {"gpu", true, ladderGPU}, {"hbm", true, ladderHBM}, {"workloads", true, ladderWorkloads},
		{"sim", true, ladderSim}, {"instruments", true, ladderInstruments}, {"par", false, ladderPar},
		{"harness", false, ladderHarness}, {"design", true, ladderDesign}, {"service", false, ladderService},
		{"store", true, ladderStore}, {"fleet", false, ladderFleet},
	} {
		t0 := time.Now()
		release := func() {}
		if rung.singleThread {
			release = occupyOtherCores()
		}
		rung.run(ls, e, rec)
		release()
		fmt.Printf("   ladder: %-12s %6.2f s\n", rung.name, time.Since(t0).Seconds())
	}
	fmt.Printf("   ladder: total %.2f s after a %.2f s traced window\n", time.Since(start).Seconds(), elapsed.Seconds())
	return ls
}

// windowCounts are process counters read at the window's boundaries.
type windowCounts struct {
	mallocs, bytes float64
}

func windowMetrics(ls layerSet, rec *recorder, win windowCounts) {
	plain := rec.stats(func(s sample) bool { return !s.traced })
	traced := rec.stats(func(s sample) bool { return s.traced })
	all := rec.stats(func(sample) bool { return true })
	ls.set("window.ops", float64(all.n))
	ls.set("window.op_p50_ms", plain.p50ms)
	ls.set("window.traced_op_p50_ms", traced.p50ms)
	if plain.p50ms > 0 && traced.p50ms > 0 {
		ls.set("trace.overhead_frac", traced.p50ms/plain.p50ms-1)
	}
	p, v := tailPercentile(all.allLatency)
	ls.set("window.op_tail_pct", p)
	ls.set("window.op_tail_ms", v)
	if all.n > 0 {
		ls.set("window.mallocs_per_op", win.mallocs/float64(all.n))
		ls.set("window.alloc_kb_per_op", win.bytes/1e3/float64(all.n))
	}
	spans := rec.tr.spans
	ls.set("trace.spans", float64(len(spans)))
	self := layerSelfSeconds(spans)
	var total float64
	for _, s := range self {
		total += s
	}
	if total > 0 {
		for layer, name := range map[string]string{
			"bench": "bench", "sim": "sim", "harness": "harness", "core": "core",
			"service": "service", "service.wait": "service_wait",
		} {
			ls.set("window.self_frac."+name, self[layer]/total)
		}
	}
}

// timeReps runs f reps times and returns the median duration.
func timeReps(reps int, f func()) time.Duration {
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		f()
		times[i] = float64(time.Since(t0))
	}
	return time.Duration(median(times))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
