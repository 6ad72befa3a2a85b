package obs

import (
	"encoding/json"
	"net/http"
)

// This file is the shared live-status surface: the handler set every
// binary mounts so a run can be inspected while it executes. atlasd
// mounts the handlers on its one mux, and internal/cmdrun on the mux of
// shears' and figures' -status-addr listener, both through
// internal/httpapi's Register.

// MetricsHandler serves the registry's Prometheus text exposition.
func MetricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	}
}

// EventsHandler serves the flight recorder's retained events as JSON.
func EventsHandler(rec *Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = rec.WriteJSON(w)
	}
}

// ProgressHandler serves the snapshot function's result as JSON. The
// snapshot runs per request, so it always reflects the live run.
func ProgressHandler(snapshot func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snapshot())
	}
}
