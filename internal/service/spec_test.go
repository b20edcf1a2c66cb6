package service

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// TestCanonicalizeMeshDefaultsPerField: each mesh field defaults on its own
// (width 8, height = width, 8 CBs), so a spec naming only a height or a CB
// count keeps it and does not hash to the default job's key.
func TestCanonicalizeMeshDefaultsPerField(t *testing.T) {
	def, err := JobSpec{}.Key()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec JobSpec
		want [3]int
	}{
		{JobSpec{}, [3]int{8, 8, 8}},
		{JobSpec{NumCBs: 4}, [3]int{8, 8, 4}},
		{JobSpec{Height: 12}, [3]int{8, 12, 8}},
		{JobSpec{Width: 12}, [3]int{12, 12, 8}},
		{JobSpec{Width: 6, Height: 4, NumCBs: 2}, [3]int{6, 4, 2}},
	}
	for _, tc := range cases {
		c, err := tc.spec.Canonicalize()
		if err != nil {
			t.Fatalf("Canonicalize(%+v): %v", tc.spec, err)
		}
		if got := [3]int{c.Width, c.Height, c.NumCBs}; got != tc.want {
			t.Errorf("Canonicalize(%+v) mesh = %v, want %v", tc.spec, got, tc.want)
		}
		key, err := keyOf(c)
		if err != nil {
			t.Fatal(err)
		}
		if isDefault := tc.want == [3]int{8, 8, 8}; (key == def) != isDefault {
			t.Errorf("%+v: key %s, default key %s", tc.spec, key, def)
		}
	}
}

// FuzzJobSpec: the submit handler decodes outside bytes into a JobSpec
// (unknown fields rejected) and canonicalizes it. Every spec it accepts must
// be a fixed point of Canonicalize with a stable key that Priority and
// Telemetry do not change, and must name at least one run; a failing input
// is written to testdata/fuzz.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"numCBs":4}`,
		`{"height":12}`,
		`{"width":4,"height":4,"numCBs":2,"schemes":["SingleBase","equinox","singlebase"],` +
			`"benchmarks":["kmeans","bfs","kmeans"],"instructionsPerPE":100,"seed":7,` +
			`"trace":true,"telemetry":true,"parallel":3,"priority":"interactive"}`,
		`{"width":8,"design":{"width":8,"height":8,"cbs":[[2,0]],"groups":[[[0,0]]]}}`,
		`{"width":-1}`,
		`{"bogus":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		canon, err := spec.Canonicalize()
		if err != nil {
			return
		}
		again, err := canon.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec rejected: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonicalize is not idempotent:\n%+v\n%+v\n%s", canon, again, data)
		}
		key, err := keyOf(canon)
		if err != nil {
			t.Fatal(err)
		}
		if k, err := spec.Key(); err != nil || k != key {
			t.Fatalf("Key() = %q, %v; want %q\n%s", k, err, key, data)
		}
		advice := spec
		advice.Telemetry = !spec.Telemetry
		advice.Priority = "interactive"
		if canon.Priority == "interactive" {
			advice.Priority = "batch"
		}
		if k, err := advice.Key(); err != nil || k != key {
			t.Fatalf("Priority/Telemetry moved the key: %q, %v; want %q\n%s", k, err, key, data)
		}
		if canon.Runs() <= 0 {
			t.Fatalf("canonical spec has %d runs\n%s", canon.Runs(), data)
		}
	})
}
