package obs

import (
	"slices"

	"equinox/internal/obs/trace"
)

// Phase is the aggregated wall-time of one named pipeline phase. Parallel
// spans of the same name accumulate: Count is the number of spans and NS
// their summed durations (so NS can exceed elapsed wall-clock under
// parallelism).
type Phase struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	NS    int64   `json:"ns"`
	MS    float64 `json:"ms"` // NS in milliseconds, for human-readable JSON
	MinNS int64   `json:"minNs"`
	MaxNS int64   `json:"maxNs"`
}

// PhasesUnder aggregates the finished spans called one of names that
// descend from the span with ID root, one Phase per name in first-seen
// order. Spans elsewhere in the trace (recorded before root opened, or
// imported from other nodes under other parents) never count.
func PhasesUnder(recs []trace.SpanRecord, root string, names ...string) []Phase {
	parent := make(map[string]string, len(recs))
	for _, r := range recs {
		parent[r.SpanID] = r.ParentID
	}
	under := func(id string) bool {
		// Bounded: imported records are outside bytes and may form a cycle.
		for range len(recs) + 1 {
			if id == root {
				return true
			}
			if id == "" {
				return false
			}
			id = parent[id]
		}
		return false
	}
	var out []Phase
	for _, r := range recs {
		if !slices.Contains(names, r.Name) || !under(r.ParentID) {
			continue
		}
		i := slices.IndexFunc(out, func(p Phase) bool { return p.Name == r.Name })
		if i < 0 {
			i = len(out)
			out = append(out, Phase{Name: r.Name, MinNS: r.DurNS})
		}
		p := &out[i]
		p.Count++
		p.NS += r.DurNS
		p.MS = float64(p.NS) / 1e6
		p.MinNS = min(p.MinNS, r.DurNS)
		p.MaxNS = max(p.MaxNS, r.DurNS)
	}
	return out
}
