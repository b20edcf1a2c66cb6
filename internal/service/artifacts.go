package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"equinox/internal/obs"
)

// artifact describes one per-job artifact endpoint,
// GET /v1/jobs/{id}/<suffix>. All of them answer the same way: 404 for an
// unknown job or one submitted without the required flag, 409 while the job
// is unfinished, 404 when it finished without the artifact, else the bytes.
type artifact struct {
	suffix string                  // path suffix, also the name of the spec flag
	noun   string                  // what the messages call it
	flag   func(JobSpec) bool      // the spec flag the job must carry (nil = none)
	get    func(*job) []byte       // the artifact of a finished job, nil if none
	stored func(res []byte) []byte // derives it from a stored result when no job record survives (nil = it cannot)

	unknown string // 404 text: no such job
	missing string // 404 text: the job finished without the artifact
}

var artifacts = []artifact{{
	// The flight recorder's Perfetto trace of a Trace-flagged job.
	suffix: "trace", noun: "trace artifact",
	flag:    func(s JobSpec) bool { return s.Trace },
	get:     func(j *job) []byte { return j.trace },
	unknown: "no such job (completed results expire from the cache)",
	missing: "no trace artifact (job failed or was cancelled before capture)",
}, {
	// The assembled distributed span trace — the coordinator's job/unit
	// spans stitched with every worker's run spans — as Perfetto JSON.
	suffix: "spans", noun: "span trace",
	get:     func(j *job) []byte { return j.spans },
	unknown: "no such job (span traces do not survive restarts)",
	missing: "no span trace (tail-sampled out, or the job was cancelled before assembly)",
}, {
	// The telemetry.RunSummary array a Telemetry-flagged sweep collected,
	// one per (scheme, benchmark), sorted like the result's runs. It rides
	// the result document, so a previous process's persisted result can
	// still answer.
	suffix: "telemetry", noun: "telemetry artifact",
	flag:    func(s JobSpec) bool { return s.Telemetry },
	get:     func(j *job) []byte { return j.telemetry },
	stored:  telemetryArtifact,
	unknown: "no such job (completed results expire from the cache)",
	missing: "no telemetry artifact (the cached result was computed without telemetry, or the job failed before capture)",
}}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request, a artifact) {
	id := r.PathValue("id")
	var body []byte
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state JobState
	if ok {
		state = j.state
		body = a.get(j)
	}
	s.mu.Unlock()
	switch {
	case !ok:
		if a.stored != nil {
			if res, hit := s.store.Get(id); hit {
				body = a.stored(res)
			}
		}
		if body == nil {
			obs.WriteError(w, http.StatusNotFound, a.unknown)
			return
		}
	case a.flag != nil && !a.flag(j.spec):
		obs.WriteError(w, http.StatusNotFound, fmt.Sprintf("job was not submitted with %s: true", a.suffix))
		return
	case !state.Finished():
		obs.WriteError(w, http.StatusConflict, fmt.Sprintf("job is %s; the %s appears when it completes", state, a.noun))
		return
	case body == nil:
		obs.WriteError(w, http.StatusNotFound, a.missing)
		return
	}
	obs.WriteJSONBody(w, http.StatusOK, body)
}

// telemetryArtifact extracts the raw "telemetry" block from an evaluation
// document, or nil when the document carries none.
func telemetryArtifact(result []byte) []byte {
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
