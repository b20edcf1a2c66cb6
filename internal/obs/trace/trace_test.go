package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanHierarchyAndRecords(t *testing.T) {
	tr := NewTracer("node-a").New()
	root := tr.Start("", "job")
	root.SetAttr("scheme", "EquiNox")
	child := tr.Start(root.ID(), "sim")
	child.SetAttrInt("cycles", 1234)
	child.End()
	root.End()

	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	// End order: child closed first.
	if recs[0].Name != "sim" || recs[1].Name != "job" {
		t.Fatalf("record names = %q, %q", recs[0].Name, recs[1].Name)
	}
	if recs[0].ParentID != recs[1].SpanID {
		t.Fatalf("child parent %q != root span %q", recs[0].ParentID, recs[1].SpanID)
	}
	if recs[0].Node != "node-a" || recs[1].Node != "node-a" {
		t.Fatalf("node names = %q, %q, want node-a", recs[0].Node, recs[1].Node)
	}
	if recs[1].ParentID != "" {
		t.Fatalf("root has parent %q", recs[1].ParentID)
	}
	if recs[0].Attrs[0].K != "cycles" || recs[0].Attrs[0].I != 1234 {
		t.Fatalf("child attrs = %+v", recs[0].Attrs)
	}
	if recs[0].DurNS < 0 || recs[0].StartUnixNS == 0 {
		t.Fatalf("bad timing: %+v", recs[0])
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tc := NewTracer("coordinator")
	tr := tc.New()
	sp := tr.Start("", "unit EquiNox/hotspot")
	tp := sp.TraceParent()

	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q is not version-00 form", tp)
	}

	tw := NewTracer("worker-1")
	remote, parent, ok := tw.Join(tp)
	if !ok {
		t.Fatalf("Join rejected %q", tp)
	}
	if remote.ID() != tr.ID() {
		t.Fatalf("joined trace ID %q != %q", remote.ID(), tr.ID())
	}
	if parent != sp.ID() {
		t.Fatalf("joined parent %q != span %q", parent, sp.ID())
	}

	// Worker-side spans stitch under the remote parent after Import.
	wsp := remote.Start(parent, "run")
	wsp.End()
	sp.End()
	tr.Import(remote.Records())
	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("stitched records = %d, want 2", len(recs))
	}
	var run *SpanRecord
	for i := range recs {
		if recs[i].Name == "run" {
			run = &recs[i]
		}
	}
	if run == nil || run.ParentID != sp.ID() || run.Node != "worker-1" {
		t.Fatalf("stitched run span = %+v", run)
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short-span-01",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // unknown version
		"00-0123456789abcdef0123456789abcdeX-0123456789abcdef-01", // non-hex
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0",  // short flags
	}
	for _, v := range bad {
		if _, _, ok := ParseTraceParent(v); ok {
			t.Errorf("ParseTraceParent(%q) accepted", v)
		}
	}
	tid, sid, ok := ParseTraceParent("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	if !ok || tid != "0123456789abcdef0123456789abcdef" || sid != "0123456789abcdef" {
		t.Fatalf("valid traceparent rejected: %q %q %v", tid, sid, ok)
	}
}

// FuzzParseTraceParent feeds the traceparent decoder arbitrary header
// values: it must never panic, and whatever it accepts must survive the
// render-and-parse round trip unchanged.
func FuzzParseTraceParent(f *testing.F) {
	f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef-00")
	f.Add("00-00000000000000000000000000000000-0123456789abcdef-01")
	f.Add("01-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, v string) {
		tid, sid, ok := ParseTraceParent(v)
		if !ok {
			return
		}
		r := formatTraceParent(tid, sid)
		if r[:53] != v[:53] {
			t.Fatalf("%q rendered as %q", v, r)
		}
		if tid2, sid2, ok := ParseTraceParent(r); !ok || tid2 != tid || sid2 != sid {
			t.Fatalf("%q: render %q parsed as (%q, %q, %v), want (%q, %q)", v, r, tid2, sid2, ok, tid, sid)
		}
	})
}

func TestSpanCapCountsDrops(t *testing.T) {
	tc := NewTracer("n")
	tc.maxSpans = 2
	tr := tc.New()
	a := tr.Start("", "a")
	b := tr.Start(a.ID(), "b")
	if c := tr.Start(a.ID(), "c"); c != nil {
		t.Fatalf("span over cap not nil")
	}
	// Nil spans absorb everything.
	var nilSpan *Span
	nilSpan.SetAttr("k", "v")
	nilSpan.SetAttrInt("k", 1)
	nilSpan.End()
	if nilSpan.TraceParent() != "" || nilSpan.ID() != "" || nilSpan.Trace() != nil {
		t.Fatalf("nil span leaked state")
	}
	b.End()
	a.End()
	tr.Observe("", "late", time.Now(), time.Millisecond) // over cap too
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("trace dropped = %d, want 2", got)
	}
	if got := tc.DroppedTotal(); got != 2 {
		t.Fatalf("tracer dropped = %d, want 2", got)
	}
	if got := tc.SpansTotal(); got != 4 {
		t.Fatalf("tracer spans total = %d, want 4", got)
	}
	if got := len(tr.Records()); got != 2 {
		t.Fatalf("records = %d, want 2", got)
	}
}

func TestPooledSpanDoesNotAliasAttrs(t *testing.T) {
	tr := NewTracer("n").New()
	a := tr.Start("", "a")
	a.SetAttr("phase", "first")
	a.End()
	// b draws a's recycled span; its attrs must not bleed into a's record.
	b := tr.Start("", "b")
	b.SetAttr("phase", "second")
	b.End()
	recs := tr.Records()
	if recs[0].Attrs[0].S != "first" {
		t.Fatalf("recycled span overwrote earlier record attrs: %+v", recs[0])
	}
	if recs[1].Attrs[0].S != "second" {
		t.Fatalf("second record attrs = %+v", recs[1])
	}
	if recs[0].SpanID == recs[1].SpanID {
		t.Fatalf("recycled span reused span ID %q", recs[0].SpanID)
	}
}

func TestObserveAppendsCompletedSpan(t *testing.T) {
	tr := NewTracer("n").New()
	start := time.Now().Add(-50 * time.Millisecond)
	tr.Observe("parent123", "queue wait", start, 50*time.Millisecond, Attr{K: "pos", I: 3})
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Name != "queue wait" || r.ParentID != "parent123" || r.DurNS != 50*time.Millisecond.Nanoseconds() {
		t.Fatalf("observed record = %+v", r)
	}
	if r.Attrs[0].K != "pos" || r.Attrs[0].I != 3 {
		t.Fatalf("observed attrs = %+v", r.Attrs)
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if sp := SpanFrom(ctx); sp != nil {
		t.Fatalf("empty context carries span")
	}
	if sp := StartChild(ctx, "orphan"); sp != nil {
		t.Fatalf("StartChild without parent = %v", sp)
	}
	tr := NewTracer("n").New()
	root := tr.Start("", "root")
	ctx = WithSpan(ctx, root)
	if got := SpanFrom(ctx); got != root {
		t.Fatalf("SpanFrom = %v", got)
	}
	child := StartChild(ctx, "child")
	if child == nil || child.tr != tr {
		t.Fatalf("StartChild = %v", child)
	}
	child.End()
	root.End()
	if recs := tr.Records(); recs[0].ParentID != root.ID() {
		t.Fatalf("child parent = %q, want %q", recs[0].ParentID, root.ID())
	}
	// WithSpan(nil) leaves the context unchanged.
	if ctx2 := WithSpan(ctx, nil); SpanFrom(ctx2) != root {
		t.Fatalf("WithSpan(nil) replaced active span")
	}
}

func TestWritePerfetto(t *testing.T) {
	tc := NewTracer("coordinator")
	tr := tc.New()
	job := tr.Start("", "job")
	unit := tr.Start(job.ID(), "unit EquiNox/hotspot")

	tw := NewTracer("worker-1")
	remote, parent, _ := tw.Join(unit.TraceParent())
	run := remote.Start(parent, "run")
	sim := remote.Start(run.ID(), "sim")
	sim.End()
	run.End()

	unit.End()
	job.End()
	tr.Import(remote.Records())

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr.ID(), tr.Records()); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.OtherData["traceId"] != tr.ID() {
		t.Fatalf("otherData traceId = %v", doc.OtherData["traceId"])
	}
	procs := map[string]int{}
	var simEvent, jobEvent bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Args["name"].(string)] = ev.PID
		}
		if ev.Ph == "X" && ev.Name == "sim" {
			simEvent = true
			if ev.TID == 0 {
				t.Fatalf("worker sim span on control thread")
			}
			if ev.Dur < 1 {
				t.Fatalf("sim span dur = %d, want >= 1", ev.Dur)
			}
		}
		if ev.Ph == "X" && ev.Name == "job" {
			jobEvent = true
			if ev.TID != 0 {
				t.Fatalf("job span off the control thread: tid %d", ev.TID)
			}
		}
	}
	if len(procs) != 2 {
		t.Fatalf("processes = %v, want coordinator + worker-1", procs)
	}
	if !simEvent || !jobEvent {
		t.Fatalf("missing X events: sim=%v job=%v", simEvent, jobEvent)
	}
}
