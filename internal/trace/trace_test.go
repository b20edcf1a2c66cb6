package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"log/slog"
	"math/rand"
	"strings"
	"testing"

	"equinox/internal/flight"
	"equinox/internal/noc"
	"equinox/internal/obs"
	"equinox/internal/telemetry"
)

// runTraced drives a 4×4 network with n packets and returns the recorder.
func runTraced(t *testing.T, cap int, pkts int) *Recorder {
	t.Helper()
	n, err := noc.New(noc.DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{Cap: cap}
	rec.Attach(n)
	rng := rand.New(rand.NewSource(1))
	sent := 0
	for cyc := 0; cyc < 5000 && (sent < pkts || !n.Quiescent()); cyc++ {
		if sent < pkts {
			typ := noc.ReadRequest
			if sent%2 == 0 {
				typ = noc.ReadReply
			}
			p := &noc.Packet{ID: int64(sent), Type: typ, Src: rng.Intn(16), Dst: rng.Intn(16)}
			if n.TryInject(p, n.Now()) {
				sent++
			}
		}
		for node := 0; node < 16; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
	}
	return rec
}

func TestRecorderCapturesAll(t *testing.T) {
	rec := runTraced(t, 0, 60)
	if len(rec.Records) != 60 {
		t.Fatalf("recorded %d of 60", len(rec.Records))
	}
	for _, r := range rec.Records {
		if r.DeliveredAt < r.InjectedAt || r.InjectedAt < r.CreatedAt {
			t.Fatalf("timestamps out of order: %+v", r)
		}
		if r.TotalCycles() != r.QueueCycles()+r.NetCycles() {
			t.Fatal("latency parts don't add up")
		}
		if r.Flits < 1 {
			t.Fatal("flits missing")
		}
	}
}

func TestRecorderCap(t *testing.T) {
	rec := runTraced(t, 10, 60)
	if len(rec.Records) != 10 {
		t.Fatalf("cap ignored: %d records", len(rec.Records))
	}
	if rec.Dropped != 50 {
		t.Errorf("dropped = %d, want 50", rec.Dropped)
	}
}

func TestWriteCSV(t *testing.T) {
	rec := runTraced(t, 0, 20)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 { // header + 20
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0] != "id" || rows[0][9] != "netCycles" {
		t.Errorf("header wrong: %v", rows[0])
	}
}

func TestWriteJSON(t *testing.T) {
	rec := runTraced(t, 0, 15)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []Record
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 15 {
		t.Fatalf("%d records", len(out))
	}
	if out[0].TypeName == "" {
		t.Error("type name missing in JSON")
	}
}

func TestHistogramAndPercentiles(t *testing.T) {
	rec := runTraced(t, 0, 80)
	h, err := rec.NewHistogram(5)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 80 {
		t.Errorf("histogram N = %d", h.N)
	}
	var sum int64
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 80 {
		t.Errorf("bin counts sum to %d", sum)
	}
	p50, err := rec.Percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	p99, err := rec.Percentile(99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 < p50 {
		t.Errorf("p99 %d < p50 %d", p99, p50)
	}
	if p99 > h.Max {
		t.Errorf("p99 %d above max %d", p99, h.Max)
	}
	if _, err := rec.Percentile(0); err == nil {
		t.Error("percentile 0 accepted")
	}
	if _, err := (&Recorder{}).Percentile(50); err == nil {
		t.Error("empty recorder percentile accepted")
	}
	if _, err := rec.NewHistogram(0); err == nil {
		t.Error("zero bin width accepted")
	}
}

func TestByClass(t *testing.T) {
	rec := runTraced(t, 0, 40)
	by := rec.ByClass()
	if len(by[noc.Request])+len(by[noc.Reply]) != 40 {
		t.Error("class split loses records")
	}
	if len(by[noc.Request]) == 0 || len(by[noc.Reply]) == 0 {
		t.Error("expected both classes")
	}
}

// synthetic builds a recorder holding records with the given total latencies.
func synthetic(lats ...int64) *Recorder {
	rec := &Recorder{}
	for i, l := range lats {
		rec.Records = append(rec.Records, Record{ID: int64(i), DeliveredAt: l})
	}
	return rec
}

func TestPercentileSingleRecord(t *testing.T) {
	rec := synthetic(42)
	for _, p := range []float64{0.1, 50, 99.9, 100} {
		v, err := rec.Percentile(p)
		if err != nil {
			t.Fatalf("p%v: %v", p, err)
		}
		if v != 42 {
			t.Errorf("p%v = %d, want 42 (only record)", p, v)
		}
	}
}

func TestPercentileExactBoundaries(t *testing.T) {
	// Four records: each p = k/4*100 lands exactly on a rank boundary and
	// must return the k-th smallest latency; values just below a boundary
	// must not round up past it.
	rec := synthetic(40, 10, 30, 20) // unsorted on purpose
	cases := []struct {
		p    float64
		want int64
	}{
		{25, 10}, {50, 20}, {75, 30}, {100, 40},
		{24.999, 10}, {25.001, 10}, {50.001, 20}, {1, 10},
	}
	for _, c := range cases {
		v, err := rec.Percentile(c.p)
		if err != nil {
			t.Fatalf("p%v: %v", c.p, err)
		}
		if v != c.want {
			t.Errorf("p%v = %d, want %d", c.p, v, c.want)
		}
	}
}

func TestPercentileRangeAndEmpty(t *testing.T) {
	if _, err := synthetic().Percentile(50); err == nil {
		t.Error("empty recorder accepted")
	}
	rec := synthetic(1, 2)
	for _, p := range []float64{0, -5, 100.001} {
		if _, err := rec.Percentile(p); err == nil {
			t.Errorf("percentile %v accepted", p)
		}
	}
}

// TestRecorderCapBoundary: a cap equal to the traffic stores everything and
// drops nothing; Dropped counts only the overflow beyond Cap.
func TestRecorderCapBoundary(t *testing.T) {
	rec := runTraced(t, 60, 60)
	if len(rec.Records) != 60 || rec.Dropped != 0 {
		t.Errorf("cap==traffic: %d records, %d dropped", len(rec.Records), rec.Dropped)
	}
	rec = runTraced(t, 1, 20)
	if len(rec.Records) != 1 || rec.Dropped != 19 {
		t.Errorf("cap 1: %d records, %d dropped", len(rec.Records), rec.Dropped)
	}
}

// runTracedWith mirrors runTraced but lets the caller configure the recorder
// (and the network) before traffic starts.
func runTracedWith(t *testing.T, rec *Recorder, setup func(n *noc.Network), pkts int) {
	t.Helper()
	n, err := noc.New(noc.DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(n)
	}
	rec.Attach(n)
	rng := rand.New(rand.NewSource(1))
	sent := 0
	for cyc := 0; cyc < 5000 && (sent < pkts || !n.Quiescent()); cyc++ {
		if sent < pkts {
			p := &noc.Packet{ID: int64(sent + 1), Type: noc.ReadRequest, Src: rng.Intn(16), Dst: rng.Intn(16)}
			if n.TryInject(p, n.Now()) {
				sent++
			}
		}
		for node := 0; node < 16; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
	}
}

// TestCapOverflowSurfacesInMetricsAndLog locks in the overflow contract:
// every dropped record increments equinox_trace_dropped_total, and the first
// drop logs exactly one warning — a capped recorder must never be silent
// about losing data.
func TestCapOverflowSurfacesInMetricsAndLog(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	rec := &Recorder{Cap: 10}
	rec.RegisterMetrics(reg, slog.New(slog.NewTextHandler(&logBuf, nil)))
	runTracedWith(t, rec, nil, 60)

	if len(rec.Records) != 10 {
		t.Fatalf("cap ignored: %d records", len(rec.Records))
	}
	if rec.Dropped != 50 {
		t.Fatalf("dropped = %d, want 50", rec.Dropped)
	}
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), "equinox_trace_dropped_total 50") {
		t.Errorf("exposition missing drop counter:\n%s", expo.String())
	}
	if got := strings.Count(logBuf.String(), "trace recorder cap reached"); got != 1 {
		t.Errorf("cap warning logged %d times, want exactly once:\n%s", got, logBuf.String())
	}
}

// TestEventsForBackReference links the recorder to a flight recorder and
// checks delivery records gain event-level histories for sampled packets.
func TestEventsForBackReference(t *testing.T) {
	rec := &Recorder{}
	runTracedWith(t, rec, func(n *noc.Network) {
		rec.WithFlight(n.AttachFlight(flight.Options{SampleMod: 2}))
	}, 20)

	if len(rec.Records) == 0 {
		t.Fatal("no deliveries recorded")
	}
	var traced, untraced int
	for _, r := range rec.Records {
		evs := rec.EventsFor(r)
		if r.ID%2 == 0 {
			traced++
			if !r.Traced {
				t.Errorf("packet %d sampled but not flagged Traced", r.ID)
			}
			if len(evs) == 0 {
				t.Errorf("packet %d sampled but has no events", r.ID)
			} else if last := evs[len(evs)-1]; last.Kind != flight.Ejected {
				t.Errorf("packet %d history ends with %v, want ejected", r.ID, last.Kind)
			}
		} else {
			untraced++
			if r.Traced || evs != nil {
				t.Errorf("packet %d unsampled but Traced=%v events=%d", r.ID, r.Traced, len(evs))
			}
		}
	}
	if traced == 0 || untraced == 0 {
		t.Fatalf("sampling split degenerate: %d traced / %d untraced", traced, untraced)
	}
}

// TestDeliveryHooksIndependentOfAttachOrder attaches a probe, a telemetry
// series and a recorder to one network in both orders: every consumer must
// see every delivery either way (the recorder used to replace the callback
// the other two had chained into).
func TestDeliveryHooksIndependentOfAttachOrder(t *testing.T) {
	const pkts, window = 60, 64
	for _, recorderLast := range []bool{true, false} {
		n, err := noc.New(noc.DefaultConfig("t", 4, 4))
		if err != nil {
			t.Fatal(err)
		}
		rec := &Recorder{}
		var probe *noc.Probe
		var series *telemetry.Series
		topts := telemetry.Options{SampleEvery: 16, WindowCycles: window}
		if recorderLast {
			probe = n.AttachProbe(16)
			series = n.AttachTelemetry(topts)
			rec.Attach(n)
		} else {
			rec.Attach(n)
			series = n.AttachTelemetry(topts)
			probe = n.AttachProbe(16)
		}
		rng := rand.New(rand.NewSource(1))
		sent := 0
		// Run to quiescence, then on to the next window flush so the
		// series' last deliveries are counted.
		for cyc := 0; sent < pkts || !n.Quiescent() || n.Now()%window != 1; cyc++ {
			if cyc > 5000 {
				t.Fatal("network did not drain")
			}
			if sent < pkts {
				p := &noc.Packet{ID: int64(sent), Type: noc.ReadReply, Src: rng.Intn(16), Dst: rng.Intn(16)}
				if n.TryInject(p, n.Now()) {
					sent++
				}
			}
			for node := 0; node < 16; node++ {
				for n.PopDelivered(node) != nil {
				}
			}
			n.Step()
		}
		var windowed int64
		for _, w := range series.Windows() {
			windowed += w.LatCount
		}
		if len(rec.Records) != pkts || probe.LatencyCount() != pkts || windowed != pkts {
			t.Errorf("recorder attached last=%v: recorder saw %d, probe %d, telemetry %d of %d deliveries",
				recorderLast, len(rec.Records), probe.LatencyCount(), windowed, pkts)
		}
	}
}
