package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's exported function (spans inside the program are a later issue).
// Spans of one operation share Op; Parent is the index of the span that
// caused this one, -1 for an operation's root.
type span struct {
	Name   string
	Layer  string // the package the call went into; "bench" for the op root
	Start  time.Duration
	End    time.Duration
	Parent int
	Op     int
	Lane   int                // client goroutine, the Perfetto thread
	Counts map[string]float64 // counters read at the span's boundaries
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil compare per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(name, layer string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Since(t.epoch), End: -1, Parent: parent, Op: op, Lane: lane})
	return len(t.spans) - 1
}

// end closes a span, attaching counters taken at the same boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.epoch)
	t.spans[id].Counts = counts
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its direct children cover. Children may overlap each other (two
// clients, parallel runs): the covered part is the union of their intervals,
// clipped to the parent, so overlap is never subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelfSeconds sums span self time per layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += d.Seconds()
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing open.
func writeChromeTrace(path, process string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": process}}}
	for i, s := range spans {
		args := map[string]any{"op": s.Op, "id": i, "parent": s.Parent}
		for k, v := range s.Counts {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
