package equinox

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"equinox/internal/core"
	"equinox/internal/geom"
	"equinox/internal/noc"
	"equinox/internal/sim"
)

func TestExportImportDesignRoundTrip(t *testing.T) {
	d, err := DesignForMesh(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := ExportDesign(d)
	if e.Links != d.Summarize().Links || !e.AllTwoHop {
		t.Errorf("exported summary mismatch: %+v", e)
	}
	// Serialize and back.
	blob, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var e2 ExportedDesign
	if err := json.Unmarshal(blob, &e2); err != nil {
		t.Fatal(err)
	}
	d2, err := ImportDesign(&e2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.CBs) != len(d.CBs) || d2.EIRCount() != d.EIRCount() {
		t.Errorf("round trip lost structure: %d/%d CBs, %d/%d EIRs",
			len(d2.CBs), len(d.CBs), d2.EIRCount(), d.EIRCount())
	}
	if d2.Plan.Crossings() != d.Plan.Crossings() {
		t.Error("plan crossings changed")
	}
	// The imported design must be usable for simulation.
	ev, err := RunEvaluationContext(context.Background(), EvalConfig{
		Schemes: []sim.SchemeKind{sim.EquiNox}, Benchmarks: []string{"hotspot"},
		Design: d2, InstructionsPerPE: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := ev.Result(sim.EquiNox, "hotspot"); res.ExecCycles <= 0 {
		t.Error("imported design produced empty run")
	}
}

func TestImportDesignErrors(t *testing.T) {
	if _, err := ImportDesign(nil); err == nil {
		t.Error("nil accepted")
	}
	bad := &ExportedDesign{Width: 8, Height: 8, CBs: [][2]int{{1, 1}}}
	if _, err := ImportDesign(bad); err == nil {
		t.Error("group/CB count mismatch accepted")
	}
	// Off-axis EIR must be rejected by design validation.
	offAxis := &ExportedDesign{
		Width: 8, Height: 8,
		CBs:    [][2]int{{1, 1}},
		Groups: [][][2]int{{{2, 2}}},
	}
	if _, err := ImportDesign(offAxis); err == nil {
		t.Error("off-axis EIR accepted")
	}
	// The NI has one buffer per direction: a second East EIR would be a
	// link that is listed, priced and never simulated.
	twoEast := &ExportedDesign{
		Width: 8, Height: 8,
		CBs:    [][2]int{{2, 0}},
		Groups: [][][2]int{{{4, 0}, {5, 0}}},
	}
	if _, err := ImportDesign(twoEast); err == nil || !strings.Contains(err.Error(), "(2,0)") {
		t.Errorf("two EIRs of one CB in one direction: err = %v, want one naming the CB", err)
	}
	outside := &ExportedDesign{Width: 8, Height: 8, CBs: [][2]int{{8, 0}}, Groups: [][][2]int{nil}}
	if _, err := ImportDesign(outside); err == nil {
		t.Error("CB outside the mesh accepted")
	}
}

// FuzzImportDesign: ImportDesign decodes outside bytes (a job spec's pinned
// design), so whatever it accepts must be a design the simulator can wire —
// noc.New builds it, and every listed EIR's router gained exactly one input
// port, i.e. no listed link is silently dropped.
func FuzzImportDesign(f *testing.F) {
	d, err := DesignForMesh(8, 8, 8)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(ExportDesign(d))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"width":8,"height":8,"cbs":[[2,0]],"groups":[[[4,0],[5,0]]]}`))
	f.Add([]byte(`{"width":8,"height":8,"cbs":[[1,1],[5,5]],"groups":[[[3,1],[1,3]],[[5,3]]]}`))
	f.Add([]byte(`{"width":4,"height":4,"cbs":[[1,1],[1,1]],"groups":[[[3,1]],[[1,3]]]}`))
	f.Add([]byte(`{"width":4,"height":4,"cbs":[[1,1]],"groups":[[[1,1],[2,2]]]}`))
	f.Add([]byte(`{"width":-1,"height":0,"cbs":[[9,9]],"groups":[[]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e ExportedDesign
		if json.Unmarshal(data, &e) != nil {
			return
		}
		d, err := ImportDesign(&e)
		if err != nil {
			return
		}
		if d.Width > 32 || d.Height > 32 {
			return // legal, but not worth building
		}
		cfg := noc.DefaultConfig("fuzz", d.Width, d.Height)
		cfg.CBs, cfg.EIRGroups = d.CBs, d.Groups
		n, err := noc.New(cfg)
		if err != nil {
			t.Fatalf("ImportDesign accepted a design noc.New rejects: %v\n%s", err, data)
		}
		for cb, eirs := range d.Groups {
			for _, e := range eirs {
				if got, want := n.RouterAt(e).NumInPorts(), int(geom.NumDirections)+1; got != want {
					t.Fatalf("EIR %v of CB %v: router has %d input ports, want %d\n%s", e, cb, got, want, data)
				}
			}
		}
	})
}

func TestWriteJSON(t *testing.T) {
	cfg := DefaultEvalConfig()
	cfg.Benchmarks = []string{"hotspot"}
	cfg.InstructionsPerPE = 120
	ev, err := RunEvaluationContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ev.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out ExportedEvaluation
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out.Runs) != 7 {
		t.Errorf("got %d runs, want 7", len(out.Runs))
	}
	if out.Design == nil || !out.Design.AllTwoHop {
		t.Error("design missing from export")
	}
	if !strings.Contains(buf.String(), `"mesh": "8x8/8CB"`) {
		t.Error("mesh descriptor missing")
	}
	for _, r := range out.Runs {
		if r.ExecNS <= 0 || r.EnergyPJ <= 0 {
			t.Errorf("empty run in export: %+v", r)
		}
	}
}

func TestExportDesignNil(t *testing.T) {
	if ExportDesign(nil) != nil {
		t.Error("nil design should export nil")
	}
	var _ = core.DefaultDesignConfig() // keep import meaningful
}
