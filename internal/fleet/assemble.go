package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"equinox"
	"equinox/internal/obs"
)

// marshalEval renders an evaluation document exactly the way
// equinox.(*Evaluation).WriteJSON does (two-space indent, trailing
// newline), so assembled and single-process results compare byte for
// byte.
func marshalEval(doc *equinox.ExportedEvaluation) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sortEval puts runs, telemetry, and errors into the canonical order
// WriteJSON uses.
func sortEval(doc *equinox.ExportedEvaluation) {
	sort.Slice(doc.Runs, func(i, j int) bool {
		if doc.Runs[i].Scheme != doc.Runs[j].Scheme {
			return doc.Runs[i].Scheme < doc.Runs[j].Scheme
		}
		return doc.Runs[i].Benchmark < doc.Runs[j].Benchmark
	})
	sort.Slice(doc.Telemetry, func(i, j int) bool {
		if doc.Telemetry[i].Scheme != doc.Telemetry[j].Scheme {
			return doc.Telemetry[i].Scheme < doc.Telemetry[j].Scheme
		}
		return doc.Telemetry[i].Benchmark < doc.Telemetry[j].Benchmark
	})
	sort.Strings(doc.Errors)
}

// CanonicalResult normalizes an evaluation JSON document for equivalence
// comparison and storage: phase timings — wall-clock measurements that
// differ between any two runs — are stripped, and runs/errors are sorted.
// Two runs of the same spec, whether single-process or sharded across a
// fleet, produce byte-identical canonical documents.
func CanonicalResult(raw []byte) ([]byte, error) {
	var doc equinox.ExportedEvaluation
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("fleet: bad evaluation document: %w", err)
	}
	doc.Phases = nil
	doc.Telemetry = nil
	sortEval(&doc)
	return marshalEval(&doc)
}

// checkResult vets a worker's unit document before it can reach the store
// or the assembler: it must decode as an evaluation document carrying at
// least one run or error (an empty body, null, an array or a bare value
// would fail or silently drop the unit in every job that shares it). The
// document comes back compacted, the form every stored result takes.
func checkResult(raw []byte) ([]byte, error) {
	var doc equinox.ExportedEvaluation
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadResult, err)
	}
	if len(doc.Runs) == 0 && len(doc.Errors) == 0 {
		return nil, fmt.Errorf("%w: it carries no runs and no errors", ErrBadResult)
	}
	var buf bytes.Buffer
	buf.Grow(len(raw))
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadResult, err)
	}
	return buf.Bytes(), nil
}

// ExtractTelemetry pulls the raw "telemetry" block out of an evaluation
// document, or nil when absent.
func ExtractTelemetry(result []byte) []byte {
	var doc struct {
		Telemetry json.RawMessage `json:"telemetry"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		return nil
	}
	if len(doc.Telemetry) == 0 || bytes.Equal(doc.Telemetry, []byte("null")) {
		return nil
	}
	return doc.Telemetry
}

// FlightPrefix opens the document of a traced unit whose RunFunc returned
// a flight-recorder artifact: a leading "flight" member, which the worker
// lifts into CompleteRequest.Flight without re-encoding the rest.
const FlightPrefix = `{"flight":`

// extractFlight splits a RunFunc's document into the evaluation document
// and its leading "flight" member (nil when there is none).
func extractFlight(result []byte) (doc []byte, flight json.RawMessage) {
	if !bytes.HasPrefix(result, []byte(FlightPrefix)) {
		return result, nil
	}
	dec := json.NewDecoder(bytes.NewReader(result[len(FlightPrefix):]))
	if err := dec.Decode(&flight); err != nil {
		return result, nil
	}
	rest := bytes.TrimLeft(result[len(FlightPrefix)+int(dec.InputOffset()):], " \t\r\n")
	if len(rest) == 0 || rest[0] != ',' {
		return result, nil
	}
	return append([]byte{'{'}, rest[1:]...), flight
}

// assemble merges completed unit documents (and failed units' error
// strings) into the job's compact evaluation document. A one-unit job's
// document is its unit's, byte for byte, and a failed unit fails it.
// Otherwise unit documents — full single-run evaluations — are merged:
// their runs are unioned, the design is taken from the first unit that
// carries one (every EquiNox unit rebuilds the same deterministic design),
// phases are summed by name, and per-run error strings are unioned — the
// same "scheme/benchmark: message" entries a single-process sweep records.
func assemble(units []*trackedUnit) ([]byte, error) {
	if len(units) == 1 {
		if u := units[0]; u.state != unitDone {
			return nil, errors.New(u.errMsg)
		}
		return units[0].result, nil
	}
	var out equinox.ExportedEvaluation
	for _, u := range units {
		switch u.state {
		case unitDone:
			var doc equinox.ExportedEvaluation
			if err := json.Unmarshal(u.result, &doc); err != nil {
				return nil, fmt.Errorf("fleet: unit %s returned a bad document: %w", u.Key, err)
			}
			out.Runs = append(out.Runs, doc.Runs...)
			out.Errors = append(out.Errors, doc.Errors...)
			out.Telemetry = append(out.Telemetry, doc.Telemetry...)
			out.Phases = obs.AddPhases(out.Phases, doc.Phases...)
			if out.Design == nil {
				out.Design = doc.Design
			}
			if out.Mesh == "" {
				out.Mesh = doc.Mesh
			}
		case unitFailed:
			out.Errors = append(out.Errors, fmt.Sprintf("%s/%s: %s", u.Scheme, u.Benchmark, u.errMsg))
		}
	}
	sortEval(&out)
	return json.Marshal(&out)
}
