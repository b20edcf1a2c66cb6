package equinox

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"equinox/internal/core"
	"equinox/internal/geom"
	"equinox/internal/obs"
	"equinox/internal/sim"
	"equinox/internal/telemetry"
)

// ExportedRun is the JSON shape of one (scheme, benchmark) measurement.
type ExportedRun struct {
	Scheme     string  `json:"scheme"`
	Benchmark  string  `json:"benchmark"`
	ExecCycles int64   `json:"execCycles"`
	ExecNS     float64 `json:"execNs"`
	IPC        float64 `json:"ipc"`
	TimedOut   bool    `json:"timedOut,omitempty"`

	ReqQueueNS float64 `json:"reqQueueNs"`
	ReqNetNS   float64 `json:"reqNetNs"`
	RepQueueNS float64 `json:"repQueueNs"`
	RepNetNS   float64 `json:"repNetNs"`

	ReplyBitShare float64 `json:"replyBitShare"`
	EnergyPJ      float64 `json:"energyPj"`
	AreaMM2       float64 `json:"areaMm2"`
	EDP           float64 `json:"edp"`
	L1HitRate     float64 `json:"l1HitRate"`
	L2HitRate     float64 `json:"l2HitRate"`
}

// ExportedDesign is the JSON shape of an EquiNox design.
type ExportedDesign struct {
	Width  int      `json:"width"`
	Height int      `json:"height"`
	CBs    [][2]int `json:"cbs"`
	// Groups[i] lists the EIR coordinates of CBs[i].
	Groups    [][][2]int `json:"groups"`
	Links     int        `json:"links"`
	Crossings int        `json:"crossings"`
	RDLLayers int        `json:"rdlLayers"`
	Bumps     int        `json:"bumps"`
	AllTwoHop bool       `json:"allTwoHop"`
}

// ExportedEvaluation is the JSON shape of a full sweep.
type ExportedEvaluation struct {
	Width, Height, NumCBs int             `json:"-"`
	Mesh                  string          `json:"mesh"`
	Design                *ExportedDesign `json:"design,omitempty"`
	Runs                  []ExportedRun   `json:"runs"`
	Errors                []string        `json:"errors,omitempty"`
	// Phases carries the sweep's aggregated phase timings (placement, MCTS,
	// simulation); summed across parallel workers.
	Phases []obs.Phase `json:"phases,omitempty"`
	// Telemetry carries the per-run windowed telemetry summaries of a
	// Telemetry-flagged sweep (EvalConfig.Telemetry), sorted like Runs.
	// Like Phases it is execution metadata, not run identity: the fleet's
	// CanonicalResult strips it, so cached/assembled results stay
	// byte-comparable across telemetry settings.
	Telemetry []telemetry.RunSummary `json:"telemetry,omitempty"`
}

// exportRun converts a sim.Result.
func exportRun(r sim.Result) ExportedRun {
	return ExportedRun{
		Scheme:        r.Scheme.String(),
		Benchmark:     r.Benchmark,
		ExecCycles:    r.ExecCycles,
		ExecNS:        r.ExecNS,
		IPC:           r.IPC,
		TimedOut:      r.TimedOut,
		ReqQueueNS:    r.ReqQueueNS,
		ReqNetNS:      r.ReqNetNS,
		RepQueueNS:    r.RepQueueNS,
		RepNetNS:      r.RepNetNS,
		ReplyBitShare: r.ReplyBitShare,
		EnergyPJ:      r.Energy.TotalPJ(),
		AreaMM2:       r.AreaMM2,
		EDP:           r.EDP(),
		L1HitRate:     r.L1HitRate,
		L2HitRate:     r.L2HitRate,
	}
}

// ExportDesign converts a core.Design for serialization.
func ExportDesign(d *core.Design) *ExportedDesign {
	if d == nil {
		return nil
	}
	out := &ExportedDesign{Width: d.Width, Height: d.Height}
	for _, cb := range d.CBs {
		out.CBs = append(out.CBs, [2]int{cb.X, cb.Y})
		var g [][2]int
		for _, e := range d.Groups[cb] {
			g = append(g, [2]int{e.X, e.Y})
		}
		out.Groups = append(out.Groups, g)
	}
	rep := d.Summarize()
	out.Links = rep.Links
	out.Crossings = rep.Crossings
	out.RDLLayers = rep.RDLLayers
	out.Bumps = rep.Bumps
	out.AllTwoHop = rep.AllTwoHop
	return out
}

// ImportDesign reconstructs a core.Design (without re-running the search);
// the interposer plan is rebuilt from the groups.
func ImportDesign(e *ExportedDesign) (*core.Design, error) {
	if e == nil {
		return nil, fmt.Errorf("equinox: nil exported design")
	}
	d := &core.Design{
		Width:  e.Width,
		Height: e.Height,
		Groups: map[geom.Point][]geom.Point{},
	}
	if len(e.Groups) != len(e.CBs) {
		return nil, fmt.Errorf("equinox: %d groups for %d CBs", len(e.Groups), len(e.CBs))
	}
	for i, c := range e.CBs {
		cb := geom.Pt(c[0], c[1])
		d.CBs = append(d.CBs, cb)
		for _, g := range e.Groups[i] {
			d.Groups[cb] = append(d.Groups[cb], geom.Pt(g[0], g[1]))
		}
	}
	d.Plan = core.PlanFor(d.Groups)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// WriteJSON serializes the evaluation (runs sorted by scheme then
// benchmark) to w.
func (ev *Evaluation) WriteJSON(w io.Writer) error {
	out := ExportedEvaluation{
		Mesh:   fmt.Sprintf("%dx%d/%dCB", ev.Config.Width, ev.Config.Height, ev.Config.NumCBs),
		Design: ExportDesign(ev.Design),
		Phases: ev.Phases,
	}
	for _, s := range ev.Schemes {
		for _, b := range ev.Benches {
			// Failed runs have no entry; they are reported via Errors.
			if r, ok := ev.Result(s, b); ok {
				out.Runs = append(out.Runs, exportRun(r))
			}
		}
	}
	out.Telemetry = append([]telemetry.RunSummary(nil), ev.Telemetry...)
	for _, e := range ev.Errors {
		out.Errors = append(out.Errors, e.Error())
	}
	return out.WriteJSON(w)
}

// Sort puts the document into canonical order: runs and telemetry by
// scheme, then benchmark, and errors lexically.
func (e *ExportedEvaluation) Sort() {
	sort.Slice(e.Runs, func(i, j int) bool {
		if e.Runs[i].Scheme != e.Runs[j].Scheme {
			return e.Runs[i].Scheme < e.Runs[j].Scheme
		}
		return e.Runs[i].Benchmark < e.Runs[j].Benchmark
	})
	sort.Slice(e.Telemetry, func(i, j int) bool {
		if e.Telemetry[i].Scheme != e.Telemetry[j].Scheme {
			return e.Telemetry[i].Scheme < e.Telemetry[j].Scheme
		}
		return e.Telemetry[i].Benchmark < e.Telemetry[j].Benchmark
	})
	sort.Strings(e.Errors)
}

// WriteJSON sorts the document (Sort) and writes it as two-space-indented
// JSON with a trailing newline, the one encoding of a written evaluation:
// single-process and fleet-assembled documents compare byte for byte.
func (e *ExportedEvaluation) WriteJSON(w io.Writer) error {
	e.Sort()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}
