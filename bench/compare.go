package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json -compare and the tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkSpec reads BENCHMARK.json from the working directory (the
// repository root under run.sh) or its parent (go test runs in bench/).
func loadBenchmarkSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		var data []byte
		if data, err = os.ReadFile(p); err == nil {
			return spec, json.Unmarshal(data, &spec)
		}
	}
	return spec, err
}

// side is one set of runs of the same commit.
type side map[string]map[string][]float64 // workload → metric → one value per run

func loadSide(paths []string) (side, error) {
	s := side{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Results {
			if r.Trace {
				continue // end-to-end metrics come from untraced runs only
			}
			if s[r.Workload] == nil {
				s[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				s[r.Workload][name] = append(s[r.Workload][name], v.Value)
			}
		}
	}
	return s, nil
}

// verdict classifies B against A for one metric on one workload. worse is
// the relative change of the median in the bad direction; spread is the
// wider of the two sides' interquartile ranges over A's median. A change is
// unresolved when the spread exceeds the bound, unless every run of one side
// beats every run of the other.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0, 0
	}
	worse := (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	var spread float64
	if len(a) > 1 && len(b) > 1 {
		a1, a3 := quartiles(a)
		b1, b3 := quartiles(b)
		spread = max(a3-a1, b3-b1) / ma
	}
	allBetter := minOf(b) > maxOf(a)
	allWorse := maxOf(b) < minOf(a)
	if !higherBetter {
		allBetter, allWorse = allWorse, allBetter
	}
	switch {
	case allBetter && worse < 0:
		return "improved", worse, spread
	case spread > bound && !(allWorse && worse > bound):
		return "unresolved", worse, spread
	case worse > bound:
		return "regressed", worse, spread
	case worse < -spread && worse < 0 && spread > 0:
		return "improved", worse, spread
	default:
		return "unchanged", worse, spread
	}
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// compareMain prints, per end-to-end metric and workload, each side's median
// and quartiles and the verdict. It exits 1 when anything regressed.
func compareMain(args []string) int {
	pa, pb := splitArgs(args)
	if len(pa) == 0 || len(pb) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json... -- B.json...")
		return 2
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	a, err := loadSide(pa)
	if err == nil {
		var b side
		if b, err = loadSide(pb); err == nil {
			return printComparison(spec, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func printComparison(spec benchmarkSpec, a, b side) int {
	status := 0
	fmt.Printf("%-14s %-11s %12s %25s %12s %25s %8s %8s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "worse", "spread", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, spread := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "regressed" {
				status = 1
			}
			fmt.Printf("%-14s %-11s %12.5g %25s %12.5g %25s %+7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, median(va), quartileString(va), median(vb), quartileString(vb), 100*worse, 100*spread, v)
		}
	}
	return status
}

func quartileString(v []float64) string {
	if len(v) < 2 {
		return fmt.Sprintf("(n=%d)", len(v))
	}
	q1, q3 := quartiles(v)
	return fmt.Sprintf("[%.5g, %.5g] n=%d", q1, q3, len(v))
}

// splitArgs splits a -compare argument list at "--".
func splitArgs(args []string) (a, b []string) {
	for i, s := range args {
		if s == "--" {
			return args[:i], args[i+1:]
		}
	}
	return args, nil
}
