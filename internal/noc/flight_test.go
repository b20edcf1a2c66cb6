package noc

import (
	"strings"
	"testing"

	"equinox/internal/flight"
)

// TestFlightLifecycleEvents delivers one packet across the mesh with the
// flight recorder attached and checks its event history tells the full
// story: created, buffered at the NI, VC-allocated, switch-granted, link
// traversals, and finally ejected — in non-decreasing cycle order.
func TestFlightLifecycleEvents(t *testing.T) {
	n, err := New(DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	fr := n.AttachFlight(flight.Options{})
	p := &Packet{ID: 2, Type: ReadReply, Src: 0, Dst: 15}
	if !n.TryInject(p, n.Now()) {
		t.Fatal("injection refused on empty network")
	}
	var got *Packet
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
	if evs[0].Kind != flight.Created {
		t.Errorf("first event = %v, want created", evs[0].Kind)
	}
	if last := evs[len(evs)-1]; last.Kind != flight.Ejected || last.Router != 15 {
		t.Errorf("last event = %v at router %d, want ejected at 15", last.Kind, last.Router)
	}
	seen := map[flight.Kind]bool{}
	prev := int64(-1)
	for _, ev := range evs {
		if ev.Cycle < prev {
			t.Fatalf("cycle went backwards: %d after %d", ev.Cycle, prev)
		}
		prev = ev.Cycle
		seen[ev.Kind] = true
		if ev.Pkt != 2 || ev.Src != 0 || ev.Dst != 15 {
			t.Fatalf("event carries wrong identity: %+v", ev)
		}
	}
	for _, k := range []flight.Kind{
		flight.Created, flight.BufferAssigned, flight.VCAlloc,
		flight.SAGrant, flight.LinkTraverse, flight.Ejected,
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
	n, err := New(DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	fr := n.AttachFlight(flight.Options{StallLimit: 300})
	id := int64(1)
	for i := 0; i < 1500 && fr.StarvedFor(n.Now()) <= fr.StallLimit(); i++ {
		p := &Packet{ID: id, Type: ReadReply, Src: 0, Dst: 15}
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
	n, err := New(DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	fr := n.AttachFlight(flight.Options{StallLimit: -1})
	id := int64(1)
	for i := 0; i < 600; i++ {
		p := &Packet{ID: id, Type: ReadReply, Src: 0, Dst: 15}
		if n.TryInject(p, n.Now()) {
			id++
		}
		n.Step()
	}
	var stalls int
	for _, ev := range fr.Events() {
		if ev.Kind == flight.InjectStall {
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
