package main

import (
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the program
// together without running anything: same workloads with the same reasons,
// same per-layer metrics with the same units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadTable))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadTable[i].name || w.Why != workloadTable[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloadTable[i].name, workloadTable[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.Name)
		}
	}
	if len(spec.PerLayer) != len(layerMetricTable) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetricTable))
	}
	seen := map[string]bool{}
	for i, m := range spec.PerLayer {
		lm := layerMetricTable[i]
		if m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, lm)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(spec.PerLayer))
	}
}

// TestQuickRunsEmitEveryMetric runs every workload at -quick size, untraced,
// and one traced run, and checks that the metrics emitted are exactly the
// ones BENCHMARK.json declares and that every correctness check passes.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	e := env{seed: 1, quick: true, tmp: t.TempDir()}
	golden := &goldenFile{}
	sameNames := func(kind string, got map[string]metricValue, want map[string]string) {
		t.Helper()
		for name, unit := range want {
			v, ok := got[name]
			if !ok {
				t.Errorf("%s metric %s is declared but was not emitted", kind, name)
			} else if v.Unit != unit {
				t.Errorf("%s metric %s has unit %q, declared %q", kind, name, v.Unit, unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s metric %s was emitted but is not declared", kind, name)
			}
		}
	}
	endToEnd := map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, w := range workloadTable {
		res, _, err := measure(w, e, 0.2, false, e.tmp, golden)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		sameNames(w.name+" end-to-end", res.Metrics, endToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
			}
		}
	}
	perLayer := map[string]string{}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	res, _, err := measure(workloadTable[0], e, 0.4, true, e.tmp, golden)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	sameNames("per-layer", res.Metrics, perLayer)
}
