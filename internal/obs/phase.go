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
		if slices.Contains(names, r.Name) && under(r.ParentID) {
			out = AddPhases(out, Phase{Name: r.Name, Count: 1, NS: r.DurNS, MinNS: r.DurNS, MaxNS: r.DurNS})
		}
	}
	return out
}

// AddPhases folds phases into sum by name, keeping first-seen order:
// counts and durations add, and the extremes widen.
func AddPhases(sum []Phase, phases ...Phase) []Phase {
	for _, p := range phases {
		i := slices.IndexFunc(sum, func(q Phase) bool { return q.Name == p.Name })
		if i < 0 {
			i = len(sum)
			sum = append(sum, Phase{Name: p.Name, MinNS: p.MinNS})
		}
		q := &sum[i]
		q.Count += p.Count
		q.NS += p.NS
		q.MS = float64(q.NS) / 1e6
		q.MinNS = min(q.MinNS, p.MinNS)
		q.MaxNS = max(q.MaxNS, p.MaxNS)
	}
	return sum
}
