package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// goldenFile pins the SHA-256 of every simulated output (sim.Result JSON,
// canonical sweep and job documents, exported designs) for the seeds it
// holds. A mismatch is reported as sim.stats_drift and printed loudly but is
// not a failed operation: a deliberate model fix stays possible, while a
// "pure speed-up" that moves Figure 9 cannot hide. Outputs of -quick runs
// are never compared: their sizes differ.
type goldenFile struct {
	path string
	// Seeds maps seed → output name → hash.
	Seeds map[string]map[string]string `json:"seeds"`
}

// goldenPath is bench/golden.json seen from the repository root, where
// run.sh runs the program, or from bench/ itself, where go test runs.
func goldenPath() string {
	if _, err := os.Stat("bench"); err == nil {
		return filepath.Join("bench", "golden.json")
	}
	return "golden.json"
}

func loadGolden() *goldenFile {
	g := &goldenFile{path: goldenPath(), Seeds: map[string]map[string]string{}}
	data, err := os.ReadFile(g.path)
	if err != nil {
		return g // no golden yet: nothing is compared
	}
	if err := json.Unmarshal(data, g); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v (ignored)\n", g.path, err)
		g.Seeds = map[string]map[string]string{}
	}
	return g
}

// compare counts the outputs whose hash differs from the golden one for this
// seed, and how many outputs had a golden hash at all.
func (g *goldenFile) compare(e env, outputs map[string]string) (drift, checked int) {
	if e.quick {
		return 0, 0
	}
	want := g.Seeds[strconv.FormatInt(e.seed, 10)]
	for name, h := range outputs {
		if w, ok := want[name]; ok {
			checked++
			if w != h {
				drift++
				fmt.Printf("   drift: %s\n", name)
			}
		}
	}
	return drift, checked
}

func (g *goldenFile) record(e env, outputs map[string]string) {
	key := strconv.FormatInt(e.seed, 10)
	if g.Seeds[key] == nil {
		g.Seeds[key] = map[string]string{}
	}
	for name, h := range outputs {
		g.Seeds[key][name] = h
	}
}

func (g *goldenFile) save() error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(g.path, append(data, '\n'), 0o644)
}
