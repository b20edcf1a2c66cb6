package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTimeWithOverlappingChildren: a span's self time is its duration
// minus the union of its children's intervals, so two children that overlap
// (parallel clients) are not subtracted twice, and a child that outlives its
// parent is clipped to it.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Layer: "bench", Start: msec(0), End: msec(100), Parent: -1},
		{Name: "a", Layer: "sim", Start: msec(10), End: msec(50), Parent: 0},
		{Name: "b", Layer: "sim", Start: msec(30), End: msec(70), Parent: 0},   // overlaps a by 20 ms
		{Name: "c", Layer: "core", Start: msec(90), End: msec(120), Parent: 0}, // runs 20 ms past the parent
		{Name: "a1", Layer: "noc", Start: msec(20), End: msec(30), Parent: 1},
	}
	want := []time.Duration{
		msec(100 - 60 - 10), // children cover [10,70] and [90,100]
		msec(40 - 10),
		msec(40),
		msec(30),
		msec(10),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	byLayer := layerSelfSeconds(spans)
	if !near(byLayer["sim"], 0.070) || !near(byLayer["bench"], 0.030) {
		t.Errorf("per-layer self time = %v", byLayer)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.start("x", "sim", -1, 0, 0)
	tr.end(id, nil)
	if id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := newTracer()
	root := tr.start("op", "bench", -1, 7, 1)
	child := tr.start("sim.RunToCompletion", "sim", root, 7, 1)
	tr.end(child, map[string]float64{"cycles": 123})
	tr.end(root, nil)
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeChromeTrace(path, "bench test", tr.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 { // process name + two spans
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[2]
	if ev.Name != "sim.RunToCompletion" || ev.Ph != "X" || ev.Cat != "sim" || ev.Args["cycles"] != 123.0 || ev.Args["parent"] != 0.0 {
		t.Errorf("child event = %+v", ev)
	}
}
