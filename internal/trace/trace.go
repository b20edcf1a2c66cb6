// Package trace records per-packet delivery events from a NoC simulation
// and post-processes them: CSV/JSON export for external analysis and
// latency histograms/percentiles for tail-latency studies (which averages —
// the paper's Figure 10 metric — cannot show).
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strconv"

	"equinox/internal/flight"
	"equinox/internal/noc"
	"equinox/internal/obs"
)

// Record is one delivered packet.
type Record struct {
	ID          int64          `json:"id"`
	Type        noc.PacketType `json:"-"`
	TypeName    string         `json:"type"`
	Src         int            `json:"src"`
	Dst         int            `json:"dst"`
	Flits       int            `json:"flits"`
	CreatedAt   int64          `json:"createdAt"`
	InjectedAt  int64          `json:"injectedAt"`
	DeliveredAt int64          `json:"deliveredAt"`
	// Traced reports whether the flight recorder sampled this packet, i.e.
	// whether EventsFor can back-reference its lifecycle events.
	Traced bool `json:"traced,omitempty"`
}

// QueueCycles is the source-side queuing latency.
func (r Record) QueueCycles() int64 { return r.InjectedAt - r.CreatedAt }

// NetCycles is the in-network latency.
func (r Record) NetCycles() int64 { return r.DeliveredAt - r.InjectedAt }

// TotalCycles is the end-to-end latency.
func (r Record) TotalCycles() int64 { return r.DeliveredAt - r.CreatedAt }

// Recorder collects delivery records from one network.
type Recorder struct {
	Records []Record
	// Cap bounds memory use; zero means unbounded. Once reached, further
	// deliveries are counted but not stored.
	Cap     int
	Dropped int64

	// dropCounter and dropLogger, when set via RegisterMetrics, surface cap
	// overflows instead of dropping silently.
	dropCounter *obs.Counter
	dropLogger  *slog.Logger
	dropWarned  bool

	// flight, when set via WithFlight, back-references each record's
	// event-level history in the network's flight recorder.
	flight *flight.Recorder
}

// RegisterMetrics binds cap-overflow accounting to an obs registry: every
// dropped record increments equinox_trace_dropped_total, and the first drop
// logs one warning through logger (nil = no logging).
func (rec *Recorder) RegisterMetrics(reg *obs.Registry, logger *slog.Logger) {
	rec.dropCounter = reg.Counter("equinox_trace_dropped_total",
		"Delivery records dropped because a trace recorder hit its cap.")
	rec.dropLogger = logger
}

// WithFlight links the recorder to the network's flight recorder so
// delivery records gain event-level back-references (Traced flag,
// EventsFor).
func (rec *Recorder) WithFlight(fr *flight.Recorder) { rec.flight = fr }

// EventsFor returns the flight-recorder lifecycle events of a record's
// packet, or nil when no flight recorder is linked or the packet was not
// sampled (events may also have been overwritten by the ring).
func (rec *Recorder) EventsFor(r Record) []flight.Event {
	if rec.flight == nil || !rec.flight.Hit(r.ID) {
		return nil
	}
	return rec.flight.PacketEvents(r.ID)
}

// Attach registers the recorder as one of the network's delivery hooks.
func (rec *Recorder) Attach(n *noc.Network) {
	n.OnDelivered(func(p *noc.Packet) {
		if rec.Cap > 0 && len(rec.Records) >= rec.Cap {
			rec.Dropped++
			if rec.dropCounter != nil {
				rec.dropCounter.Inc()
			}
			if rec.dropLogger != nil && !rec.dropWarned {
				rec.dropWarned = true
				rec.dropLogger.Warn("trace recorder cap reached; dropping further records",
					"cap", rec.Cap, "packet", p.ID)
			}
			return
		}
		rec.Records = append(rec.Records, Record{
			ID:          p.ID,
			Type:        p.Type,
			TypeName:    p.Type.String(),
			Src:         p.Src,
			Dst:         p.Dst,
			Flits:       p.Flits,
			CreatedAt:   p.CreatedAt,
			InjectedAt:  p.InjectedAt,
			DeliveredAt: p.DeliveredAt,
			Traced:      rec.flight != nil && rec.flight.Hit(p.ID),
		})
	})
}

// WriteCSV emits the records with a header row.
func (rec *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"id", "type", "src", "dst", "flits", "created", "injected", "delivered",
		"queueCycles", "netCycles",
	}); err != nil {
		return err
	}
	for _, r := range rec.Records {
		row := []string{
			strconv.FormatInt(r.ID, 10), r.TypeName,
			strconv.Itoa(r.Src), strconv.Itoa(r.Dst), strconv.Itoa(r.Flits),
			strconv.FormatInt(r.CreatedAt, 10),
			strconv.FormatInt(r.InjectedAt, 10),
			strconv.FormatInt(r.DeliveredAt, 10),
			strconv.FormatInt(r.QueueCycles(), 10),
			strconv.FormatInt(r.NetCycles(), 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the records as a JSON array.
func (rec *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(rec.Records)
}

// Histogram is a latency histogram with fixed-width bins.
type Histogram struct {
	BinWidth int64
	Counts   []int64
	N        int64
	Max      int64
}

// NewHistogram builds a histogram over the records' total latency.
func (rec *Recorder) NewHistogram(binWidth int64) (*Histogram, error) {
	if binWidth <= 0 {
		return nil, fmt.Errorf("trace: bin width must be positive")
	}
	h := &Histogram{BinWidth: binWidth}
	for _, r := range rec.Records {
		lat := r.TotalCycles()
		if lat < 0 {
			return nil, fmt.Errorf("trace: negative latency on packet %d", r.ID)
		}
		bin := int(lat / binWidth)
		for len(h.Counts) <= bin {
			h.Counts = append(h.Counts, 0)
		}
		h.Counts[bin]++
		h.N++
		if lat > h.Max {
			h.Max = lat
		}
	}
	return h, nil
}

// Percentile returns the pth latency percentile (0 < p ≤ 100) of the
// recorded packets, computed exactly from the records.
func (rec *Recorder) Percentile(p float64) (int64, error) {
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("trace: percentile %f out of range", p)
	}
	if len(rec.Records) == 0 {
		return 0, fmt.Errorf("trace: no records")
	}
	lats := make([]int64, len(rec.Records))
	for i, r := range rec.Records {
		lats[i] = r.TotalCycles()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(p/100*float64(len(lats))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx], nil
}

// ByClass splits the records per traffic class.
func (rec *Recorder) ByClass() map[noc.Class][]Record {
	out := map[noc.Class][]Record{}
	for _, r := range rec.Records {
		c := noc.ClassOf(r.Type)
		out[c] = append(out[c], r)
	}
	return out
}
