package flight

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"equinox/internal/noc"
)

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.SampleMod != 1 {
		t.Errorf("SampleMod = %d, want 1", o.SampleMod)
	}
	if o.BufferCap != 1<<16 {
		t.Errorf("BufferCap = %d, want %d", o.BufferCap, 1<<16)
	}
	if o.StallLimit != DefaultStallLimit {
		t.Errorf("StallLimit = %d, want %d", o.StallLimit, DefaultStallLimit)
	}
	// Explicitly disabling the watchdog survives defaulting.
	if got := (Options{StallLimit: -1}.WithDefaults()).StallLimit; got != -1 {
		t.Errorf("disabled StallLimit = %d, want -1", got)
	}
}

func TestSamplingFilter(t *testing.T) {
	r := NewRecorder(Options{SampleMod: 4})
	var hits int
	for pkt := int64(1); pkt <= 100; pkt++ {
		if r.Hit(pkt) {
			hits++
		}
	}
	if hits != 25 {
		t.Errorf("SampleMod 4 over IDs 1..100: %d hits, want 25", hits)
	}
	all := NewRecorder(Options{})
	if !all.Hit(7) || !all.Hit(8) {
		t.Error("default SampleMod must trace every packet")
	}
}

func TestRingWrapKeepsNewestInOrder(t *testing.T) {
	r := NewRecorder(Options{BufferCap: 4})
	for c := int64(1); c <= 6; c++ {
		r.Record(Event{Cycle: c, Pkt: c})
	}
	if r.Total() != 6 {
		t.Errorf("Total = %d, want 6", r.Total())
	}
	if r.Overwritten() != 2 {
		t.Errorf("Overwritten = %d, want 2", r.Overwritten())
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	evs := r.Events()
	want := []int64{3, 4, 5, 6}
	if len(evs) != len(want) {
		t.Fatalf("Events len = %d, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Cycle != want[i] {
			t.Errorf("Events[%d].Cycle = %d, want %d", i, ev.Cycle, want[i])
		}
	}
	tail := r.TailEvents(2)
	if len(tail) != 2 || tail[0].Cycle != 5 || tail[1].Cycle != 6 {
		t.Errorf("TailEvents(2) = %v, want cycles 5,6", tail)
	}
}

func TestPacketEvents(t *testing.T) {
	r := NewRecorder(Options{BufferCap: 16})
	r.Record(Event{Cycle: 1, Pkt: 10, Kind: noc.Created})
	r.Record(Event{Cycle: 2, Pkt: 11, Kind: noc.Created})
	r.Record(Event{Cycle: 3, Pkt: 10, Kind: noc.VCAlloc})
	r.Record(Event{Cycle: 9, Pkt: 10, Kind: noc.Ejected})
	evs := r.PacketEvents(10)
	if len(evs) != 3 {
		t.Fatalf("PacketEvents(10) len = %d, want 3", len(evs))
	}
	if evs[0].Kind != noc.Created || evs[1].Kind != noc.VCAlloc || evs[2].Kind != noc.Ejected {
		t.Errorf("PacketEvents(10) kinds = %v,%v,%v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
}

func TestStallReasonStrings(t *testing.T) {
	cases := map[int32]string{
		noc.StallBuffersBusy: "buffers-busy",
		noc.StallNoVC:        "no-vc",
		noc.StallVCFull:      "vc-full",
	}
	for r, want := range cases {
		if got := StallReasonString(r); got != want {
			t.Errorf("StallReasonString(%d) = %q, want %q", r, got, want)
		}
	}
	if got := StallReasonString(0); got == "" {
		t.Error("unknown reason must still render non-empty")
	}
}

func TestStarvationWindow(t *testing.T) {
	r := NewRecorder(Options{StallLimit: 100})
	r.EjectObserved(50, 1, 10, false)
	if got := r.StarvedFor(120); got != 70 {
		t.Errorf("StarvedFor(120) = %d, want 70", got)
	}
	// Arming during quiescence resets the baseline so idle != starvation.
	r.Arm(400)
	if got := r.StarvedFor(450); got != 50 {
		t.Errorf("StarvedFor after Arm = %d, want 50", got)
	}
	// Arm never moves the baseline backwards.
	r.Arm(300)
	if got := r.StarvedFor(450); got != 50 {
		t.Errorf("StarvedFor after stale Arm = %d, want 50", got)
	}
	r.NoteStarvation()
	if r.StarvationFires() != 1 {
		t.Errorf("StarvationFires = %d, want 1", r.StarvationFires())
	}
}

func TestTailLatencyTrigger(t *testing.T) {
	r := NewRecorder(Options{LatencyLimit: 100})
	r.Record(Event{Cycle: 1, Pkt: 5, Kind: noc.Created})
	r.Record(Event{Cycle: 150, Pkt: 5, Kind: noc.Ejected, A: 149})

	r.EjectObserved(50, 1, 40, true) // under the bound: no dump
	r.EjectObserved(150, 5, 149, true)
	r.EjectObserved(160, 6, 130, false) // over, but unsampled: counted only
	// Eight more sampled over-limit deliveries: the ninth sampled one
	// (pkt 14) is over maxTailDumps, so it is counted only.
	for pkt := int64(7); pkt <= 14; pkt++ {
		r.EjectObserved(160+pkt, pkt, 130, true)
	}

	if r.TailExceeded() != 10 {
		t.Errorf("TailExceeded = %d, want 10", r.TailExceeded())
	}
	dumps := r.TailDumps()
	if len(dumps) != maxTailDumps {
		t.Fatalf("TailDumps len = %d, want %d (capped)", len(dumps), maxTailDumps)
	}
	if last := dumps[len(dumps)-1].Pkt; last != 13 {
		t.Errorf("last dump is pkt %d, want 13", last)
	}
	if dumps[0].Pkt != 5 || dumps[0].Latency != 149 {
		t.Errorf("dump[0] = pkt %d latency %d, want pkt 5 latency 149", dumps[0].Pkt, dumps[0].Latency)
	}
	if len(dumps[0].Events) != 2 {
		t.Errorf("dump[0] events = %d, want the packet's 2 ring events", len(dumps[0].Events))
	}
}

func TestFormatEvents(t *testing.T) {
	r := NewRecorder(Options{})
	out := r.FormatEvents([]Event{
		{Cycle: 7, Pkt: 3, Kind: noc.InjectStall, Type: noc.ReadRequest, Src: 1, Dst: 2, Router: 1, A: noc.StallNoVC},
		{Cycle: 9, Pkt: 3, Kind: noc.Ejected, Type: noc.ReadRequest, Src: 1, Dst: 2, Router: 2, A: 8},
	})
	for _, want := range []string{"why=no-vc", "latency=8", "ReadRequest", "pkt=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatEvents output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("FormatEvents rendered %d lines, want 2", lines)
	}
}

func testCapture() *Capture {
	r := NewRecorder(Options{BufferCap: 32})
	r.Name, r.W, r.H = "reply0", 2, 2
	r.Record(Event{Cycle: 1, Pkt: 2, Kind: noc.Created, Type: noc.ReadReply, Src: 0, Dst: 3, Router: 0, A: 1, B: -1})
	r.Record(Event{Cycle: 2, Pkt: 2, Kind: noc.BufferAssigned, Type: noc.ReadReply, Src: 0, Dst: 3, Router: 0, A: 0, B: 0})
	r.Record(Event{Cycle: 4, Pkt: 2, Kind: noc.SAGrant, Type: noc.ReadReply, Src: 0, Dst: 3, Router: 0, A: 0, B: 0})
	r.Record(Event{Cycle: 6, Pkt: 2, Kind: noc.Ejected, Type: noc.ReadReply, Src: 0, Dst: 3, Router: 3, A: 5})
	r.Record(Event{Cycle: 5, Pkt: 4, Kind: noc.Created, Type: noc.ReadRequest, Src: 1, Dst: 2, Router: 1, A: 0, B: -1})
	return &Capture{Scheme: "EquiNox", Benchmark: "kmeans", Recorders: []*Recorder{r}}
}

func TestWritePerfettoStructure(t *testing.T) {
	c := testCapture()
	var buf bytes.Buffer
	if err := c.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			PID  int            `json:"pid"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Perfetto output is not valid JSON: %v", err)
	}
	if doc.OtherData["scheme"] != "EquiNox" || doc.OtherData["benchmark"] != "kmeans" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	phases := map[string]int{}
	var opens, closes []string
	inflightEnd := false
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		switch ev.Ph {
		case "b":
			opens = append(opens, ev.ID)
		case "e":
			closes = append(closes, ev.ID)
			if v, ok := ev.Args["inflight"]; ok && v == true {
				inflightEnd = true
			}
		}
	}
	if phases["M"] == 0 {
		t.Error("no metadata (process/thread name) events")
	}
	if phases["i"] != 5 {
		t.Errorf("instant events = %d, want 5 (one per recorded event)", phases["i"])
	}
	// Every async open has a matching close: 2 packets.
	if len(opens) != 2 || len(closes) != 2 {
		t.Fatalf("async slices: %d opens / %d closes, want 2/2", len(opens), len(closes))
	}
	for i := range opens {
		if opens[i] != closes[i] {
			t.Errorf("slice %d: open id %s != close id %s", i, opens[i], closes[i])
		}
	}
	// Packet 4 never ejected, so its slice must end flagged inflight.
	if !inflightEnd {
		t.Error("un-ejected packet's closing slice lacks inflight arg")
	}
}

func TestWriteCSV(t *testing.T) {
	c := testCapture()
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("CSV rows = %d, want header + 5 events", len(rows))
	}
	if rows[0][0] != "net" || rows[0][2] != "kind" {
		t.Errorf("bad header: %v", rows[0])
	}
	if rows[1][0] != "reply0" || rows[1][2] != "created" || rows[1][4] != "ReadReply" {
		t.Errorf("bad first event row: %v", rows[1])
	}
}
