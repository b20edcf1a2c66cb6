package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"equinox"
	"equinox/internal/core"
)

// goldenCases pin each command's stdout, and every file it writes, byte for
// byte. The goldens were recorded from the single-purpose tools (equinox-sim,
// equinox-eval, equinox-trace, …) these commands replaced, so a drift is a
// behaviour change. DA2Mesh spreads replies over eight subnets, so its trace
// records interleave deliveries from several networks. "$DIR" in args is a
// per-test temp dir. Regenerate deliberately with
// GOLDEN_UPDATE=1 go test ./cmd/equinox.
var goldenCases = []struct {
	name  string
	args  []string
	files map[string]string // golden extension → file written under $DIR
}{
	{"sim-list", []string{"sim", "-list"}, nil},
	{"sim-singlebase", []string{"sim", "-scheme", "SingleBase", "-bench", "hotspot", "-instr", "100"}, nil},
	{"sim-equinox-6x6", []string{"sim", "-width", "6", "-height", "6", "-cbs", "4", "-instr", "100"}, nil},
	{"eval-table1", []string{"eval", "-table1"}, nil},
	{"eval-kmeans", []string{"eval", "-benchmarks", "kmeans", "-instr", "40", "-json", "$DIR/eval.json"},
		map[string]string{"json": "eval.json"}},
	{"eval-fig9a-ubumps", []string{"eval", "-benchmarks", "kmeans,bfs", "-instr", "40", "-fig9a", "-ubumps"}, nil},
	{"design-mcts", []string{"design", "-iters", "40"}, nil},
	{"design-greedy-12x12", []string{"design", "-search", "greedy", "-width", "12", "-height", "12"}, nil},
	{"design-random", []string{"design", "-search", "random", "-iters", "25"}, nil}, // reports its 8 × 25 samples
	{"heatmap", []string{"heatmap", "-cycles", "300"}, nil},
	{"sweep-f2m", []string{"sweep", "-pattern", "f2m"}, nil},
	{"viz", []string{"viz", "-out", "$DIR"},
		map[string]string{"design.svg": "design.svg", "heatmaps.svg": "heatmaps.svg"}},
	{"trace-equinox-kmeans", []string{"trace", "-instr", "10", "-scheme", "EquiNox", "-bench", "kmeans",
		"-csv", "$DIR/csv", "-jsonout", "$DIR/json"}, map[string]string{"csv": "csv", "json": "json"}},
	{"trace-da2mesh-hotspot", []string{"trace", "-instr", "10", "-scheme", "DA2Mesh", "-bench", "hotspot", "-heatmap",
		"-csv", "$DIR/csv", "-jsonout", "$DIR/json"}, map[string]string{"csv": "csv", "json": "json"}},
	{"trace-events", []string{"trace", "-instr", "10", "-events", "-sample", "2", "-jsonout", "$DIR/json"},
		map[string]string{"json": "json"}},
	{"trace-heatmap", []string{"trace", "-instr", "10", "-heatmap", "-heatmap-csv", "$DIR/occ.csv"},
		map[string]string{"occ.csv": "occ.csv"}},
}

func TestGoldenOutputs(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var args []string
			for _, a := range tc.args {
				args = append(args, strings.ReplaceAll(a, "$DIR", dir))
			}
			var stdout bytes.Buffer
			if err := run(context.Background(), args, &stdout); err != nil {
				t.Fatal(err)
			}
			got := map[string][]byte{"stdout": []byte(strings.ReplaceAll(stdout.String(), dir, "$DIR"))}
			for ext, file := range tc.files {
				data, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				if tc.args[0] == "eval" {
					data = withoutPhases(t, data)
				}
				got[ext] = data
			}
			for ext, data := range got {
				checkGolden(t, filepath.Join("testdata", tc.name+"."+ext), data, update)
			}
		})
	}
}

// withoutPhases drops an evaluation document's "phases" — wall-clock
// timings — and re-encodes it with ExportedEvaluation.WriteJSON.
func withoutPhases(t *testing.T, data []byte) []byte {
	t.Helper()
	var doc equinox.ExportedEvaluation
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Phases = nil
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, path string, data []byte, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("drifted from %s (%d bytes, want %d)\n--- got ---\n%.2000s\n--- want ---\n%.2000s",
			path, len(data), len(want), data, want)
	}
}

// TestHelp pins every command's -h text: the flags, defaults and help strings
// of the tool it replaced, under the program name "equinox <command>".
func TestHelp(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	for name, cmd := range commands {
		t.Run(name, func(t *testing.T) {
			fs := flag.NewFlagSet("equinox "+name, flag.ContinueOnError)
			var buf bytes.Buffer
			fs.SetOutput(&buf)
			cmd(fs)
			fs.Usage()
			checkGolden(t, filepath.Join("testdata", name+".help"), buf.Bytes(), update)
		})
	}
}

// TestParseSearch: design and viz accept the same three searches and reject
// anything else with errUsage (exit 2) before writing output.
func TestParseSearch(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(new(bytes.Buffer))
	for name, want := range map[string]core.SearchStrategy{
		"mcts": core.SearchMCTS, "greedy": core.SearchGreedyTwoHop, "random": core.SearchRandom,
	} {
		if got, err := parseSearch(fs, name); err != nil || got != want {
			t.Errorf("parseSearch(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	dir := filepath.Join(t.TempDir(), "out")
	for _, args := range [][]string{
		{"design", "-search", "annealing"},
		{"viz", "-search", "Greedy", "-out", dir},
	} {
		var stdout bytes.Buffer
		if err := run(context.Background(), args, &stdout); !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want errUsage", args, err)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v printed %q", args, stdout.String())
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("viz with an unknown search created %s (%v)", dir, err)
	}
}

// TestReadmeNamesEveryCommand: README's "Command-line tools" section shows
// `go run ./cmd/equinox <command>` for exactly the commands run dispatches.
func TestReadmeNamesEveryCommand(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Command-line tools\n")
	if !ok {
		t.Fatal(`README has no "## Command-line tools" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var named []string
	for _, m := range regexp.MustCompile(`go run \./cmd/equinox (\w+)`).FindAllStringSubmatch(section, -1) {
		named = append(named, m[1])
	}
	slices.Sort(named)
	if got, want := slices.Compact(named), commandNames(); !slices.Equal(got, want) {
		t.Errorf("README's CLI section names %v, want exactly the commands %v", got, want)
	}
}
