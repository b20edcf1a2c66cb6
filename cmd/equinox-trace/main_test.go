package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCases pin equinox-trace's simulation outputs byte for byte: stdout
// plus every file the case asks for. DA2Mesh spreads replies over eight
// subnets, so its records interleave deliveries from several networks.
// Regenerate with GOLDEN_UPDATE=1 go test ./cmd/equinox-trace.
var goldenCases = []struct {
	name  string
	args  []string
	files []string // output flags; each writes testdata/<name>.<goldenExt>
}{
	{"equinox-kmeans", []string{"-scheme", "EquiNox", "-bench", "kmeans"}, []string{"-csv", "-jsonout"}},
	{"da2mesh-hotspot", []string{"-scheme", "DA2Mesh", "-bench", "hotspot", "-heatmap"}, []string{"-csv", "-jsonout"}},
	{"events", []string{"-events", "-sample", "2"}, []string{"-jsonout"}},
	{"heatmap", []string{"-heatmap"}, []string{"-heatmap-csv"}},
}

// goldenExt names each output flag's golden file extension.
var goldenExt = map[string]string{"-csv": "csv", "-jsonout": "json", "-heatmap-csv": "occ.csv"}

func TestGoldenOutputs(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-instr", "10"}, tc.args...)
			got := map[string][]byte{}
			for _, f := range tc.files {
				args = append(args, f, filepath.Join(dir, goldenExt[f]))
			}
			var stdout bytes.Buffer
			if err := run(args, &stdout); err != nil {
				t.Fatal(err)
			}
			// Output paths are per-test temp dirs; pin them as $DIR.
			got["stdout"] = []byte(strings.ReplaceAll(stdout.String(), dir, "$DIR"))
			for _, f := range tc.files {
				data, err := os.ReadFile(filepath.Join(dir, goldenExt[f]))
				if err != nil {
					t.Fatal(err)
				}
				got[goldenExt[f]] = data
			}
			for ext, data := range got {
				path := filepath.Join("testdata", tc.name+"."+ext)
				if update {
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
				}
				if !bytes.Equal(data, want) {
					t.Errorf("%s drifted from %s (%d bytes, want %d)", ext, path, len(data), len(want))
					if ext == "stdout" {
						t.Logf("--- got ---\n%s--- want ---\n%s", data, want)
					}
				}
			}
		})
	}
}

func TestPercentileSingleRecord(t *testing.T) {
	for _, p := range []float64{0.1, 50, 99.9, 100} {
		if v := percentile([]int64{42}, p); v != 42 {
			t.Errorf("p%v = %d, want 42 (only record)", p, v)
		}
	}
}

func TestPercentileExactBoundaries(t *testing.T) {
	// Four records: each p = k/4*100 lands exactly on a rank boundary and
	// must return the k-th smallest latency; values just below a boundary
	// must not round up past it.
	sorted := []int64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want int64
	}{
		{25, 10}, {50, 20}, {75, 30}, {100, 40},
		{24.999, 10}, {25.001, 10}, {50.001, 20}, {1, 10},
	}
	for _, c := range cases {
		if v := percentile(sorted, c.p); v != c.want {
			t.Errorf("p%v = %d, want %d", c.p, v, c.want)
		}
	}
}
