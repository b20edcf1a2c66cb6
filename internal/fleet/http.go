package fleet

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"

	"equinox/internal/obs"
)

// RegisterHandlers mounts the coordinator/worker protocol on mux:
//
//	POST /v1/fleet/lease     — pull one work unit (204 when none queued)
//	POST /v1/fleet/complete  — report a unit's result or failure
//	POST /v1/fleet/heartbeat — renew leases and worker liveness
func RegisterHandlers(mux *http.ServeMux, c *Coordinator, log *slog.Logger) {
	if log == nil {
		log = obs.NopLogger()
	}
	mux.HandleFunc("POST /v1/fleet/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeInto(w, r, &req, log) {
			return
		}
		if req.Worker == "" {
			obs.WriteError(w, http.StatusBadRequest, "worker name is required")
			return
		}
		resp, ok := c.Lease(req.Worker)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		obs.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/fleet/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeInto(w, r, &req, log) {
			return
		}
		if req.LeaseID == "" {
			obs.WriteError(w, http.StatusBadRequest, "leaseId is required")
			return
		}
		switch err := c.Complete(req.LeaseID, req.Result, req.Error, req.Spans, req.Telemetry); {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, ErrUnknownLease):
			obs.WriteError(w, http.StatusGone, err.Error())
		case errors.Is(err, ErrBadResult):
			obs.WriteError(w, http.StatusBadRequest, err.Error())
		default:
			obs.WriteError(w, http.StatusInternalServerError, err.Error())
		}
	})
	mux.HandleFunc("POST /v1/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeInto(w, r, &req, log) {
			return
		}
		if req.Worker == "" {
			obs.WriteError(w, http.StatusBadRequest, "worker name is required")
			return
		}
		canceled := c.Heartbeat(req.Worker, req.LeaseIDs)
		obs.WriteJSON(w, http.StatusOK, HeartbeatResponse{Canceled: canceled})
	})
}

// maxProtocolBody bounds protocol request bodies. Complete requests carry
// a full single-run evaluation document (including a design export), so
// the bound is generous.
const maxProtocolBody = 64 << 20

func decodeInto(w http.ResponseWriter, r *http.Request, v any, log *slog.Logger) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxProtocolBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		log.Warn("fleet: bad protocol request", "path", r.URL.Path, "error", err)
		obs.WriteError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	return true
}
