package obs

import (
	"encoding/json"
	"net/http"
)

// This file is the shared live-status surface: the handler set every
// binary mounts so a run can be inspected while it executes. atlasd
// mounts the handlers on its one mux; internal/cmdrun serves them for
// shears and figures from the -status-addr listener via NewStatusMux.

// MetricsHandler serves the registry's Prometheus text exposition.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	})
}

// EventsHandler serves the flight recorder's retained events as JSON.
func EventsHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = rec.WriteJSON(w)
	})
}

// ProgressHandler serves the snapshot function's result as JSON. The
// snapshot runs per request, so it always reflects the live run.
func ProgressHandler(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snapshot())
	})
}

// NewStatusMux bundles the three live-status endpoints on one mux:
//
//	GET /metrics          Prometheus text exposition of reg
//	GET /debug/events     flight-recorder dump (rec)
//	GET /api/v1/progress  progress snapshot (from the snapshot func)
//
// Any nil piece leaves its endpoint unmounted.
func NewStatusMux(reg *Registry, rec *Recorder, snapshot func() any) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("GET /metrics", MetricsHandler(reg))
	}
	if rec != nil {
		mux.Handle("GET /debug/events", EventsHandler(rec))
	}
	if snapshot != nil {
		mux.Handle("GET /api/v1/progress", ProgressHandler(snapshot))
	}
	return mux
}
