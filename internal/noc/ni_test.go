package noc

import (
	"strings"
	"testing"

	"equinox/internal/geom"
)

// TestBufferDecisionPolicy walks the paper's Buffer Decision Policy on a
// hand-built group: CB (3,3) of an 8×8 mesh with one two-hop EIR on each axis
// direction. Buffer indices are the BufferAssigned event ones (0 local, 1..4
// East..North); -1 means the packet stays queued.
func TestBufferDecisionPolicy(t *testing.T) {
	cb := geom.Pt(3, 3)
	cfg := DefaultConfig("t", 8, 8)
	cfg.CBs = []geom.Point{cb}
	cfg.EIRGroups = map[geom.Point][]geom.Point{cb: {geom.Pt(3, 1), geom.Pt(5, 3), geom.Pt(3, 5), geom.Pt(1, 3)}}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ni := &n.nis[cb.ID(8)]
	if got := len(ni.bufs); got != 5 {
		t.Fatalf("NI has %d buffers, want local + 4 EIRs", got)
	}
	for i, want := range []int32{0, int32(geom.East), int32(geom.West), int32(geom.South), int32(geom.North)} {
		if got := ni.bufs[i].ix; got != want {
			t.Fatalf("bufs[%d] is buffer %d, want %d (local, then East..North)", i, got, want)
		}
	}
	const local, east, south, queued = 0, int32(geom.East), int32(geom.South), -1
	cases := []struct {
		name string
		dst  geom.Point
		busy []int32 // buffer indices loaded before the packets are offered
		want []int32 // selection for each of len(want) packets in a row
	}{
		{"on-axis destination takes its EIR", geom.Pt(7, 3), nil, []int32{east}},
		{"its EIR busy falls back to local", geom.Pt(7, 3), []int32{east}, []int32{local}},
		{"an EIR past the destination is no shortest path", geom.Pt(4, 3), nil, []int32{local}},
		{"quadrant destination alternates between both EIRs", geom.Pt(6, 6), nil, []int32{south, east, south, east}},
		{"quadrant destination with one EIR busy takes the other", geom.Pt(6, 6), []int32{south}, []int32{east, east}},
		{"quadrant destination with both EIRs busy goes local", geom.Pt(6, 6), []int32{south, east}, []int32{local}},
		{"everything busy stays queued", geom.Pt(6, 6), []int32{local, south, east}, []int32{queued}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ni.rr = 0
			for i := range ni.bufs {
				ni.bufs[i].pkt = nil
				for _, ix := range tc.busy {
					if ni.bufs[i].ix == ix {
						ni.bufs[i].pkt = &Packet{Type: ReadReply}
					}
				}
			}
			p := &Packet{Type: ReadReply, Src: cb.ID(8), Dst: tc.dst.ID(8)}
			for i, want := range tc.want {
				b, vc, why := ni.choose(ni, p)
				got, wantWhy := int32(queued), StallBuffersBusy
				if b != nil {
					got, wantWhy = b.ix, 0
				}
				if got != want {
					t.Errorf("packet %d: buffer %d, want %d", i, got, want)
				}
				if vc != noAlloc {
					t.Errorf("packet %d: selector committed to VC %d; EquiNox buffers pick theirs when they stream", i, vc)
				}
				if why != wantWhy {
					t.Errorf("packet %d: stall reason %d, want %d", i, why, wantWhy)
				}
			}
		})
	}
}

// TestEIRGroupsTheNICannotWire: an EIR group is exactly what the EquiNox NI
// wires — one buffer per direction, to an EIR on that axis of a CB — and New
// rejects anything else, naming the tile, rather than dropping the link.
func TestEIRGroupsTheNICannotWire(t *testing.T) {
	cb := geom.Pt(2, 2)
	cases := []struct {
		name   string
		groups map[geom.Point][]geom.Point
		want   string // substring of the error; "" = accepted
	}{
		{"one EIR per direction", map[geom.Point][]geom.Point{cb: {geom.Pt(4, 2), geom.Pt(0, 2), geom.Pt(2, 4), geom.Pt(2, 0)}}, ""},
		{"two EIRs in one direction", map[geom.Point][]geom.Point{cb: {geom.Pt(4, 2), geom.Pt(5, 2)}}, "(5,2)"},
		{"off-axis EIR", map[geom.Point][]geom.Point{cb: {geom.Pt(3, 3)}}, "(3,3)"},
		{"EIR on its CB's tile", map[geom.Point][]geom.Point{cb: {cb}}, "(2,2)"},
		{"group for a non-CB tile", map[geom.Point][]geom.Point{geom.Pt(4, 4): {geom.Pt(6, 4)}}, "(4,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig("t", 8, 8)
			cfg.CBs = []geom.Point{cb}
			cfg.EIRGroups = tc.groups
			n, err := New(cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				for _, e := range tc.groups[cb] {
					if got := n.RouterAt(e).NumInPorts(); got != int(geom.NumDirections)+1 {
						t.Errorf("EIR router %v has %d input ports, want %d", e, got, int(geom.NumDirections)+1)
					}
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New() = %v, want an error naming %s", err, tc.want)
			}
		})
	}
}
