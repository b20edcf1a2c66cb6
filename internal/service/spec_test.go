package service

import (
	"strings"
	"testing"

	"equinox"
)

// TestKeyCanonicalization: a defaulted spec and its fully spelled-out
// equivalent — including permuted scheme/benchmark lists and duplicates —
// must content-address identically.
func TestKeyCanonicalization(t *testing.T) {
	defaulted := JobSpec{}
	explicit := JobSpec{
		Width: 8, Height: 8, NumCBs: 8,
		Schemes: []string{
			"EquiNox", "SingleBase", "MultiPort", "VC-Mono", "DA2Mesh",
			"Interposer-CMesh", "SeparateBase",
		},
		Benchmarks: equinox.Benchmarks(),
	}
	k1, err := defaulted.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("defaulted %s != explicit %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a hex SHA-256", k1)
	}

	permuted := JobSpec{
		Benchmarks: []string{"kmeans", "bfs", "kmeans"},
		Schemes:    []string{"SeparateBase", "EquiNox", "separatebase"},
	}
	straight := JobSpec{
		Benchmarks: []string{"bfs", "kmeans"},
		Schemes:    []string{"EquiNox", "SeparateBase"},
	}
	kp, err := permuted.Key()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := straight.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kp != ks {
		t.Errorf("permuted %s != straight %s", kp, ks)
	}
	if kp == k1 {
		t.Error("subset sweep collides with the full sweep")
	}

	seeded := JobSpec{Seed: 2, Benchmarks: []string{"bfs", "kmeans"}, Schemes: []string{"EquiNox", "SeparateBase"}}
	kd, err := seeded.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kd == ks {
		t.Error("different seeds share a key")
	}
}

// TestCanonicalizeRuns checks the run count of a canonicalized spec.
func TestCanonicalizeRuns(t *testing.T) {
	c, err := JobSpec{Schemes: []string{"SingleBase"}, Benchmarks: []string{"kmeans", "bfs"}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Runs(); got != 2 {
		t.Errorf("Runs() = %d, want 2", got)
	}
	full, err := JobSpec{}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Runs(); got != 7*29 {
		t.Errorf("default Runs() = %d, want %d", got, 7*29)
	}
}

// TestSpecValidation: descriptive rejections for the inputs the HTTP layer
// must turn into 400s.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown scheme", JobSpec{Schemes: []string{"WarpSpeed"}}, "unknown scheme"},
		{"unknown benchmark", JobSpec{Benchmarks: []string{"doom"}}, "unknown benchmark"},
		{"negative width", JobSpec{Width: -4, Height: 8, NumCBs: 4}, "negative mesh"},
		{"too many CBs", JobSpec{Width: 4, Height: 4, NumCBs: 16}, "leave no PEs"},
		{"tiny mesh", JobSpec{Width: 1, Height: 1, NumCBs: 1}, "too small"},
		{"negative instructions", JobSpec{InstructionsPerPE: -1}, "InstructionsPerPE"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Canonicalize(); err == nil {
				t.Fatalf("Canonicalize(%+v) accepted", tc.spec)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
