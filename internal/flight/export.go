package flight

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"equinox/internal/noc"
)

// Capture bundles the recorders of one traced run (one per physical
// network, in sim.Networks order) with its identifying labels.
type Capture struct {
	Scheme    string
	Benchmark string
	Recorders []*Recorder
}

// TotalEvents sums the events ever recorded across networks.
func (c *Capture) TotalEvents() int64 {
	var n int64
	for _, r := range c.Recorders {
		n += r.Total()
	}
	return n
}

// Overwritten sums the ring-overwritten events across networks.
func (c *Capture) Overwritten() int64 {
	var n int64
	for _, r := range c.Recorders {
		n += r.Overwritten()
	}
	return n
}

// StarvationFires sums starvation watchdog firings across networks.
func (c *Capture) StarvationFires() int64 {
	var n int64
	for _, r := range c.Recorders {
		n += r.StarvationFires()
	}
	return n
}

// TailExceeded sums latency-bound violations across networks.
func (c *Capture) TailExceeded() int64 {
	var n int64
	for _, r := range c.Recorders {
		n += r.TailExceeded()
	}
	return n
}

// pfEvent is one Chrome trace-event object. The format is the trace-event
// JSON both Perfetto and chrome://tracing load: "M" metadata events name
// processes/threads, "b"/"e" async slices span a packet's life, and "i"
// instants mark lifecycle points on router tracks. One simulated cycle maps
// to one microsecond of trace time.
type pfEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope ("t" = thread)
	Args map[string]any `json:"args,omitempty"`
}

// WritePerfetto renders the capture as Chrome trace-event JSON. Each
// network becomes one process (pid = network index), each router one thread
// within it; every traced packet is an async slice from its first to its
// last event, with instants for the intermediate lifecycle points.
func (c *Capture) WritePerfetto(w io.Writer) error {
	var out []pfEvent
	for pid, rec := range c.Recorders {
		name := rec.Name
		if name == "" {
			name = fmt.Sprintf("net%d", pid)
		}
		out = append(out, pfEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": fmt.Sprintf("%s (%dx%d)", name, rec.W, rec.H)},
		})
		evs := rec.Events()
		// Async slice boundaries: first and last held event per packet.
		first := map[int64]int{}
		last := map[int64]int{}
		for i, ev := range evs {
			if _, ok := first[ev.Pkt]; !ok {
				first[ev.Pkt] = i
			}
			last[ev.Pkt] = i
		}
		namedRouter := map[int32]bool{}
		for i, ev := range evs {
			tid := int(ev.Router)
			if !namedRouter[ev.Router] {
				namedRouter[ev.Router] = true
				tname := fmt.Sprintf("router %d", ev.Router)
				if rec.W > 0 {
					tname = fmt.Sprintf("router %d (%d,%d)", ev.Router, int(ev.Router)%rec.W, int(ev.Router)/rec.W)
				}
				out = append(out, pfEvent{
					Name: "thread_name", Ph: "M", PID: pid, TID: tid,
					Args: map[string]any{"name": tname},
				})
			}
			pktID := strconv.FormatInt(ev.Pkt, 10)
			pktName := fmt.Sprintf("pkt %d %s %d->%d", ev.Pkt, ev.Type, ev.Src, ev.Dst)
			if first[ev.Pkt] == i {
				out = append(out, pfEvent{
					Name: pktName, Cat: "packet", Ph: "b", ID: pktID,
					TS: ev.Cycle, PID: pid, TID: tid,
				})
			}
			args := map[string]any{"pkt": ev.Pkt}
			switch ev.Kind {
			case noc.Created:
				args["class"] = ev.A
			case noc.BufferAssigned:
				args["buffer"] = ev.A
			case noc.InjectStall:
				args["reason"] = StallReasonString(ev.A)
			case noc.VCAlloc, noc.SAGrant:
				args["port"], args["vc"] = ev.A, ev.B
			case noc.LinkTraverse:
				args["inPort"], args["vc"] = ev.A, ev.B
			case noc.Ejected:
				args["latency"] = ev.A
			}
			out = append(out, pfEvent{
				Name: kindName(ev.Kind), Cat: "lifecycle", Ph: "i",
				TS: ev.Cycle, PID: pid, TID: tid, S: "t", Args: args,
			})
			if last[ev.Pkt] == i {
				endArgs := map[string]any(nil)
				if ev.Kind != noc.Ejected {
					endArgs = map[string]any{"inflight": true}
				}
				out = append(out, pfEvent{
					Name: pktName, Cat: "packet", Ph: "e", ID: pktID,
					TS: ev.Cycle, PID: pid, TID: tid, Args: endArgs,
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"scheme":    c.Scheme,
			"benchmark": c.Benchmark,
			"timeUnit":  "1us = 1 network cycle",
		},
	})
}

// WriteCSV emits every held event across networks as compact CSV.
func (c *Capture) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"net", "cycle", "kind", "pkt", "type", "src", "dst", "router", "a", "b",
	}); err != nil {
		return err
	}
	for _, rec := range c.Recorders {
		for _, ev := range rec.Events() {
			row := []string{
				rec.Name,
				strconv.FormatInt(ev.Cycle, 10),
				kindName(ev.Kind),
				strconv.FormatInt(ev.Pkt, 10),
				ev.Type.String(),
				strconv.Itoa(int(ev.Src)),
				strconv.Itoa(int(ev.Dst)),
				strconv.Itoa(int(ev.Router)),
				strconv.Itoa(int(ev.A)),
				strconv.Itoa(int(ev.B)),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
