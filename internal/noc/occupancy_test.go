package noc

import "testing"

// sampleObserver is a test observer standing in for the instruments above
// noc: it counts every event by kind and, every `every` cycles, reads
// Occupancy into preallocated rows and adds them up, next to a flit ledger
// taken on the same cycles: the flits injected and not yet ejected, which by
// flit conservation the NIs, the input VCs and the links hold.
type sampleObserver struct {
	n          *Network
	every      int64
	per, links []int64
	kinds      [Ejected + 1]int64

	samples, occ, onLinks, ledger int64
	negative                      int64 // router samples below zero
}

func newSampleObserver(n *Network, every int64) *sampleObserver {
	o := &sampleObserver{n: n, every: every, per: make([]int64, len(n.Routers)), links: make([]int64, len(n.Routers)*meshLinks)}
	n.Observe(o)
	return o
}

func (o *sampleObserver) Packet(_ int64, _ *Packet, k EventKind, _ int, _, _ int32) { o.kinds[k]++ }

func (o *sampleObserver) EndCycle(now int64) {
	if now%o.every != 0 {
		return
	}
	o.n.Occupancy(o.per, o.links)
	o.samples++
	for _, f := range o.per {
		o.occ += f
		if f < 0 {
			o.negative++
		}
	}
	for _, b := range o.links {
		o.onLinks += b
	}
	s := &o.n.Stats
	o.ledger += (s.Bits[Request]+s.Bits[Reply])/int64(8*o.n.Cfg.FlitBytes) - s.EjectFlits
}

// TestProbeSampling drives a small network under sustained crossing reply
// traffic — the last VC of every input port it crosses — with a sampling
// observer attached, and checks that Occupancy adds up: summed over routers
// and samples, it equals the flits the ledger says were in the network less
// those it reports on links, and no router ever holds fewer than zero.
func TestProbeSampling(t *testing.T) {
	cfg := DefaultConfig("probed", 4, 4)
	cfg.Routing = RoutingXY
	cfg.VCPolicy = VCByClass
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newSampleObserver(n, 4)
	pairs := [][2]int{{0, 15}, {15, 0}, {3, 12}, {12, 3}}
	h := newAllocHarness(t, n, ReadReply, pairs, 4)
	for i := 0; i < 400; i++ {
		h.tick()
	}

	if want := int64(100); o.samples != want {
		t.Errorf("samples = %d, want %d (400 cycles / every 4)", o.samples, want)
	}
	if o.negative != 0 {
		t.Errorf("%d router samples below zero", o.negative)
	}
	if o.occ == 0 {
		t.Error("no occupancy recorded under sustained traffic")
	}
	if o.onLinks == 0 {
		t.Error("no link load recorded under sustained traffic")
	}
	if o.occ != o.ledger-o.onLinks {
		t.Errorf("occupancy sums to %d flit-samples; %d were injected and not ejected, %d of them on links", o.occ, o.ledger, o.onLinks)
	}
}
