package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"equinox/internal/flight"
	"equinox/internal/noc"
	"equinox/internal/workloads"
)

// TestFlightPerfettoFromHotspotRun traces a short hotspot run end to end and
// validates the exported Chrome trace: parseable JSON, per-packet timestamps
// that never go backwards, balanced async slices, and — since the run drains
// completely and nothing was overwritten — every traced packet's history
// ending in an ejection.
func TestFlightPerfettoFromHotspotRun(t *testing.T) {
	prof, err := workloads.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(EquiNox, t)
	cfg.InstructionsPerPE = 60
	sys, err := NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	capt := sys.AttachFlight(flight.Options{BufferCap: 1 << 20})
	if _, err := sys.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if capt.TotalEvents() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if capt.Overwritten() != 0 {
		t.Fatalf("ring overwrote %d events; raise BufferCap so the checks below see full histories", capt.Overwritten())
	}

	for _, rec := range capt.Recorders {
		lastCycle := map[int64]int64{}
		lastKind := map[int64]noc.EventKind{}
		sawCreated := map[int64]bool{}
		for _, ev := range rec.Events() {
			if prev, ok := lastCycle[ev.Pkt]; ok && ev.Cycle < prev {
				t.Fatalf("%s: packet %d timestamps went backwards (%d after %d)",
					rec.Name, ev.Pkt, ev.Cycle, prev)
			}
			lastCycle[ev.Pkt] = ev.Cycle
			lastKind[ev.Pkt] = ev.Kind
			if ev.Kind == noc.Created {
				sawCreated[ev.Pkt] = true
			}
		}
		// The run drained with no ring overwrites, so every packet that was
		// created on this network must have ejected.
		for pkt := range sawCreated {
			if lastKind[pkt] != noc.Ejected {
				t.Errorf("%s: packet %d ends with %v, want ejected after a drained run",
					rec.Name, pkt, lastKind[pkt])
			}
		}
	}

	var buf bytes.Buffer
	if err := capt.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			ID  string `json:"id"`
			PID int    `json:"pid"`
			TS  int64  `json:"ts"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v", err)
	}
	if doc.OtherData["scheme"] != "EquiNox" || doc.OtherData["benchmark"] != "hotspot" {
		t.Errorf("otherData labels = %v", doc.OtherData)
	}
	phases := map[string]int{}
	balance := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		key := fmt.Sprintf("%d/%s", ev.PID, ev.ID)
		switch ev.Ph {
		case "b":
			balance[key]++
		case "e":
			balance[key]--
		}
	}
	if phases["M"] == 0 || phases["i"] == 0 || phases["b"] == 0 {
		t.Fatalf("trace lacks expected phases: %v", phases)
	}
	for key, v := range balance {
		if v != 0 {
			t.Errorf("async slice %s: %+d unbalanced begin/end events", key, v)
		}
	}
}

// TestCheckFlightWatchdog exercises the simulator-side starvation check:
// a packet delivered into an eject queue that nobody drains keeps the
// network non-quiescent with no further ejections, so the watchdog must
// fail the run with a diagnostic dump.
func TestCheckFlightWatchdog(t *testing.T) {
	prof, err := workloads.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(smallConfig(SingleBase, t), prof)
	if err != nil {
		t.Fatal(err)
	}
	capt := sys.AttachFlight(flight.Options{StallLimit: 100})
	n := sys.Networks()[0]
	p := &noc.Packet{ID: 1, Type: noc.ReadRequest, Src: 0, Dst: 1}
	if !n.TryInject(p, n.Now()) {
		t.Fatal("injection refused")
	}
	for i := 0; i < 300; i++ {
		n.Step()
	}
	err = sys.checkFlightWatchdog()
	if err == nil {
		t.Fatal("watchdog did not fail the run")
	}
	if !strings.Contains(err.Error(), "starvation watchdog") {
		t.Errorf("error lacks watchdog diagnostic: %v", err)
	}
	if capt.StarvationFires() != 1 {
		t.Errorf("StarvationFires = %d, want 1", capt.StarvationFires())
	}
}

// TestFlightLifecycleEvents delivers one packet across a mesh with the
// flight observer attached and checks its event history tells the full
// story: created, buffered at the NI, VC-allocated, switch-granted, link
// traversals, and finally ejected — in non-decreasing cycle order.
func TestFlightLifecycleEvents(t *testing.T) {
	n, err := noc.New(noc.DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	fr := attachFlight(n, flight.Options{}).rec
	p := &noc.Packet{ID: 2, Type: noc.ReadReply, Src: 0, Dst: 15}
	if !n.TryInject(p, n.Now()) {
		t.Fatal("injection refused on empty network")
	}
	var got *noc.Packet
	for i := 0; i < 300 && got == nil; i++ {
		n.Step()
		got = n.PopDelivered(15)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}

	evs := fr.PacketEvents(2)
	if len(evs) == 0 {
		t.Fatal("no events recorded for the delivered packet")
	}
	if evs[0].Kind != noc.Created {
		t.Errorf("first event = %v, want created", evs[0].Kind)
	}
	if last := evs[len(evs)-1]; last.Kind != noc.Ejected || last.Router != 15 {
		t.Errorf("last event = %v at router %d, want ejected at 15", last.Kind, last.Router)
	}
	seen := map[noc.EventKind]bool{}
	prev := int64(-1)
	for _, ev := range evs {
		if ev.Cycle < prev {
			t.Fatalf("cycle went backwards: %d after %d", ev.Cycle, prev)
		}
		prev = ev.Cycle
		seen[ev.Kind] = true
		if ev.Pkt != 2 || ev.Src != 0 || ev.Dst != 15 || ev.Type != noc.ReadReply {
			t.Fatalf("event carries wrong identity: %+v", ev)
		}
	}
	for _, k := range []noc.EventKind{
		noc.Created, noc.BufferAssigned, noc.VCAlloc,
		noc.SAGrant, noc.LinkTraverse, noc.Ejected,
	} {
		if !seen[k] {
			t.Errorf("lifecycle missing %v event", k)
		}
	}
}

// TestFlightStarvationWatchdog wedges a network on purpose — endpoint 15
// never consumes its deliveries, so the two-entry eject queue fills and
// backpressure freezes everything behind it — and checks the recorder's
// starvation clock, fed by every ejection, notices: packets in flight, no
// ejection for longer than the stall limit, and a non-empty last-window
// event dump to diagnose with.
func TestFlightStarvationWatchdog(t *testing.T) {
	n, err := noc.New(noc.DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	fr := attachFlight(n, flight.Options{StallLimit: 300}).rec
	id := int64(1)
	for i := 0; i < 1500 && fr.StarvedFor(n.Now()) <= fr.StallLimit(); i++ {
		p := &noc.Packet{ID: id, Type: noc.ReadReply, Src: 0, Dst: 15}
		if n.TryInject(p, n.Now()) {
			id++
		}
		n.Step()
	}
	if starved := fr.StarvedFor(n.Now()); starved <= 300 {
		t.Fatalf("StarvedFor = %d on a wedged network, want over the 300-cycle limit", starved)
	}
	if n.InFlight() == 0 {
		t.Error("watchdog fired with nothing in flight")
	}
	dump := fr.TailEvents(50)
	if len(dump) == 0 {
		t.Fatal("watchdog dump is empty")
	}
	if s := fr.FormatEvents(dump); !strings.Contains(s, "pkt=") {
		t.Errorf("dump does not render event lines:\n%s", s)
	}
}

// TestFlightStallEvents drives the same wedge and checks injection stalls
// were recorded with a reason once the NI could no longer make progress.
func TestFlightStallEvents(t *testing.T) {
	n, err := noc.New(noc.DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	fr := attachFlight(n, flight.Options{StallLimit: -1}).rec
	id := int64(1)
	for i := 0; i < 600; i++ {
		p := &noc.Packet{ID: id, Type: noc.ReadReply, Src: 0, Dst: 15}
		if n.TryInject(p, n.Now()) {
			id++
		}
		n.Step()
	}
	var stalls int
	for _, ev := range fr.Events() {
		if ev.Kind == noc.InjectStall {
			stalls++
			if flight.StallReasonString(ev.A) == "" {
				t.Fatalf("stall event without a reason: %+v", ev)
			}
		}
	}
	if stalls == 0 {
		t.Error("no injection stalls recorded on a saturated network")
	}
}

// TestFlightHeldLinksFixed runs every scheme's networks with a flight
// observer on each and checks the held LinkTraverse list: preallocated with
// room for every mesh link, never over it, and never regrown, so holding a
// cycle's link events costs no allocation.
func TestFlightHeldLinksFixed(t *testing.T) {
	prof, err := workloads.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSchemes() {
		cfg := smallConfig(s, t)
		cfg.InstructionsPerPE = 40
		sys, err := NewSystem(cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		var obs []*flightObserver
		var links []int
		for _, n := range sys.Networks() {
			w, h := n.Cfg.Width, n.Cfg.Height
			fo := attachFlight(n, flight.Options{BufferCap: 1024})
			if mesh := 2 * ((w-1)*h + w*(h-1)); cap(fo.held) < mesh {
				t.Fatalf("%v %s: the LinkTraverse list has room for %d events, fewer than the mesh's %d links", s, n.Cfg.Name, cap(fo.held), mesh)
			}
			obs, links = append(obs, fo), append(links, cap(fo.held))
		}
		for cyc := 0; !sys.Finished(); cyc++ {
			if cyc == 200000 {
				t.Fatalf("%v: did not finish", s)
			}
			sys.Step()
			for i, fo := range obs {
				if cap(fo.held) != links[i] {
					t.Fatalf("%v cycle %d: LinkTraverse list capacity %d, was %d at attach", s, cyc, cap(fo.held), links[i])
				}
			}
		}
	}
}
