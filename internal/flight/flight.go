// Package flight is the cycle-accurate flight recorder: a low-overhead,
// ring-buffered tracer of per-packet lifecycle events recorded from inside
// the simulator's hot loop. Where internal/obs aggregates counters and
// internal/telemetry keeps per-window summaries, flight keeps the
// event-level story — which injection buffer a packet was steered to, where
// and why its injection stalled, every VC allocation, switch grant, and
// link traversal — so a run can be opened in Perfetto/chrome://tracing and
// the paper's injection bottleneck watched as it forms.
//
// The event vocabulary (noc.EventKind and the stall reasons) is
// internal/noc's; this package names it for dumps and exports. A recorder
// is fed by a noc.Observer that internal/sim attaches, so a network without
// one pays the observer list's one length compare per hook site; an
// attached one filters by packet ID (ID % SampleMod) and writes fixed-size
// events into a preallocated ring, so the steady state allocates nothing.
package flight

import (
	"fmt"
	"strings"

	"equinox/internal/noc"
)

// kindNames names each noc.EventKind in dumps and exports.
var kindNames = [...]string{
	"created", "buffer", "stall", "vcalloc", "sagrant", "link", "ejected",
}

// kindName names a lifecycle event kind.
func kindName(k noc.EventKind) string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// StallReasonString names a stall reason for dumps and trace args.
func StallReasonString(r int32) string {
	switch r {
	case noc.StallBuffersBusy:
		return "buffers-busy"
	case noc.StallNoVC:
		return "no-vc"
	case noc.StallVCFull:
		return "vc-full"
	default:
		return fmt.Sprintf("reason(%d)", r)
	}
}

// Event is one lifecycle event. Fields are plain integers so the struct is
// fixed-size and ring writes are a single copy.
type Event struct {
	Cycle  int64 // network clock-domain cycle
	Pkt    int64 // packet ID
	Kind   noc.EventKind
	Type   noc.PacketType
	Src    int32 // source node
	Dst    int32 // destination node
	Router int32 // router the event happened at (NI events: the fed router)
	A, B   int32 // kind-specific arguments (see noc.EventKind)
}

// Options configures a Recorder.
type Options struct {
	// SampleMod traces packets whose ID % SampleMod == 0; 1 (the default)
	// traces every packet. Sampling bounds event volume on long runs.
	SampleMod int64
	// BufferCap is the ring capacity in events (default 1<<16). When full,
	// the oldest events are overwritten; Overwritten() reports how many.
	BufferCap int
	// StallLimit arms the starvation watchdog: packets continuously in
	// flight with no ejection for more than StallLimit cycles fail the run
	// (default 50000; <0 disables).
	StallLimit int64
	// LatencyLimit arms the tail-latency trigger: a packet delivered with
	// end-to-end latency above the bound gets its event history dumped
	// (0 disables).
	LatencyLimit int64
}

// maxTailDumps bounds how many tail-latency packet histories a Recorder
// keeps; the trigger keeps counting after the cap.
const maxTailDumps = 8

// DefaultStallLimit is the starvation watchdog's default window in cycles.
const DefaultStallLimit = 50000

// WithDefaults fills zero fields with the defaults above.
func (o Options) WithDefaults() Options {
	if o.SampleMod <= 0 {
		o.SampleMod = 1
	}
	if o.BufferCap <= 0 {
		o.BufferCap = 1 << 16
	}
	if o.StallLimit == 0 {
		o.StallLimit = DefaultStallLimit
	}
	return o
}

// TailDump is the captured event history of one packet that exceeded the
// latency bound.
type TailDump struct {
	Pkt     int64
	Latency int64
	Events  []Event
}

// Recorder collects one network's lifecycle events into a preallocated
// ring. Metadata fields (Name, W, H) are filled by the attaching simulator
// and drive export labeling.
type Recorder struct {
	Name string // network name (trace process label)
	W, H int    // mesh shape (router track labels)

	opts Options

	ring    []Event
	next    int
	wrapped bool
	total   int64

	// Watchdog state. lastEject is the cycle of the most recent ejection of
	// any packet (sampled or not); armed is the baseline reset whenever the
	// network is quiescent, so idle stretches never count as starvation.
	lastEject  int64
	armed      int64
	starvation int64 // starvation watchdog firings

	tailExceeded int64 // deliveries over the latency bound (all packets)
	tailDumps    []TailDump
}

// NewRecorder builds a recorder with its ring preallocated.
func NewRecorder(opts Options) *Recorder {
	opts = opts.WithDefaults()
	return &Recorder{
		opts: opts,
		ring: make([]Event, opts.BufferCap),
	}
}

// Hit reports whether a packet ID passes the sampling filter. Hot path:
// called for every candidate event.
func (r *Recorder) Hit(pkt int64) bool {
	return pkt%r.opts.SampleMod == 0
}

// Record appends an event to the ring, overwriting the oldest when full.
// Hot path: a bounds-checked copy and two integer updates, no allocation.
func (r *Recorder) Record(ev Event) {
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
	r.total++
}

// Total returns how many events were ever recorded.
func (r *Recorder) Total() int64 { return r.total }

// Overwritten returns how many events the ring has discarded.
func (r *Recorder) Overwritten() int64 {
	if !r.wrapped {
		return 0
	}
	return r.total - int64(len(r.ring))
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r.wrapped {
		return len(r.ring)
	}
	return r.next
}

// Events returns the held events in chronological order (a copy; cold path).
func (r *Recorder) Events() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// TailEvents returns up to n of the most recent events in chronological
// order — the "last window" a watchdog dump shows.
func (r *Recorder) TailEvents(n int) []Event {
	evs := r.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// PacketEvents returns the held events of one packet in chronological order.
func (r *Recorder) PacketEvents(pkt int64) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Pkt == pkt {
			out = append(out, ev)
		}
	}
	return out
}

// EjectObserved notes a delivery for the watchdogs. Called for every
// ejected packet regardless of sampling (the starvation detector must see
// unsampled progress too). sampled gates the tail-latency history capture —
// only sampled packets have a history in the ring. The anomaly path may
// allocate; the common path is two compares.
func (r *Recorder) EjectObserved(now, pkt, latency int64, sampled bool) {
	r.lastEject = now
	if r.opts.LatencyLimit > 0 && latency > r.opts.LatencyLimit {
		r.tailExceeded++
		if sampled && len(r.tailDumps) < maxTailDumps {
			r.tailDumps = append(r.tailDumps, TailDump{
				Pkt: pkt, Latency: latency, Events: r.PacketEvents(pkt),
			})
		}
	}
}

// Arm resets the starvation baseline; the attaching simulator calls it while
// the network is quiescent so idle periods never read as starvation.
func (r *Recorder) Arm(now int64) {
	if now > r.armed {
		r.armed = now
	}
}

// StarvedFor returns how many cycles have passed since the network last
// ejected a packet or was last observed quiescent.
func (r *Recorder) StarvedFor(now int64) int64 {
	base := r.lastEject
	if r.armed > base {
		base = r.armed
	}
	return now - base
}

// StallLimit returns the starvation window, or -1 when disabled.
func (r *Recorder) StallLimit() int64 { return r.opts.StallLimit }

// NoteStarvation counts a starvation watchdog firing.
func (r *Recorder) NoteStarvation() { r.starvation++ }

// StarvationFires returns how often the starvation watchdog fired.
func (r *Recorder) StarvationFires() int64 { return r.starvation }

// TailExceeded returns how many deliveries exceeded the latency bound.
func (r *Recorder) TailExceeded() int64 { return r.tailExceeded }

// TailDumps returns the captured tail-latency packet histories.
func (r *Recorder) TailDumps() []TailDump { return r.tailDumps }

// FormatEvents renders events as one diagnostic line each, for watchdog
// dumps and job logs.
func (r *Recorder) FormatEvents(evs []Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "c=%-8d pkt=%-6d %-12s %s %d->%d router=%d",
			ev.Cycle, ev.Pkt, ev.Type, kindName(ev.Kind), ev.Src, ev.Dst, ev.Router)
		switch ev.Kind {
		case noc.BufferAssigned:
			fmt.Fprintf(&b, " buf=%d", ev.A)
		case noc.InjectStall:
			fmt.Fprintf(&b, " why=%s", StallReasonString(ev.A))
		case noc.VCAlloc, noc.SAGrant:
			fmt.Fprintf(&b, " port=%d vc=%d", ev.A, ev.B)
		case noc.LinkTraverse:
			fmt.Fprintf(&b, " inPort=%d vc=%d", ev.A, ev.B)
		case noc.Ejected:
			fmt.Fprintf(&b, " latency=%d", ev.A)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
