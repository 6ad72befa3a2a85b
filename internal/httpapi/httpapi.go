// Package httpapi holds the small wire conventions every HTTP surface
// of the platform shares: JSON responses, the stable {"error": ...}
// error shape, uniform 405 handling, and the one request middleware.
// Each surface of atlasd (the platform API and the serving layer) hands
// its route table to Register on the one mux, so clients see one
// contract — errors are always JSON with Content-Type application/json —
// and every route is counted the same way.
package httpapi

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// Route is one entry of a surface's route table.
type Route struct {
	Pattern string // "METHOD /path", as http.ServeMux takes it
	Name    string // the route label: one value per pattern, no IDs
	Handler http.HandlerFunc
}

// Instruments are one surface's request telemetry. Any nil field is
// inert.
type Instruments struct {
	Requests     *obs.CounterVec   // route, class ("2xx", "4xx", ..., "canceled")
	Seconds      *obs.HistogramVec // route
	EncodeErrors *obs.CounterVec   // route; JSON bodies that failed to encode in WriteJSON
}

// Register adds each route to mux through the request middleware, and
// for each path a JSON 405 whose Allow header lists the methods the
// table gives it, in table order, counted under the route
// "method_not_allowed" (the stdlib mux's automatic 405 writes a
// plain-text body). The method-qualified patterns are more specific and
// keep winning for the methods they name.
func Register(mux *http.ServeMux, in Instruments, routes []Route) {
	allow := map[string][]string{}
	for _, rt := range routes {
		mux.HandleFunc(rt.Pattern, in.wrap(rt.Name, rt.Handler))
		method, path, _ := strings.Cut(rt.Pattern, " ")
		allow[path] = append(allow[path], method)
	}
	for path, methods := range allow {
		list := strings.Join(methods, ", ")
		mux.HandleFunc(path, in.wrap("method_not_allowed", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", list)
			Errorf(w, http.StatusMethodNotAllowed, "method %s not allowed (allow: %s)", r.Method, list)
		}))
	}
}

// wrap is the request middleware: it counts each request under route
// by status class and observes its latency. A request that wrote no
// header by the time its context ended (its client went away) is
// counted under "canceled" and its latency is not observed, so the
// histogram holds answered requests only.
func (in Instruments) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	seconds := in.Seconds.With(route)
	encodeErrors := in.EncodeErrors.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		class := "canceled"
		if sw.status != 0 || r.Context().Err() == nil {
			class = statusClass(cmp.Or(sw.status, http.StatusOK))
			seconds.Observe(time.Since(start).Seconds())
		}
		in.Requests.With(route, class).Inc()
		if sw.encodeErr != nil {
			encodeErrors.Inc()
		}
	}
}

// statusWriter captures the response status for the middleware and
// carries a JSON encode failure from WriteJSON back to it: once the
// header is out, the handler cannot change the status, so the error is
// surfaced as a counter instead of being dropped.
type statusWriter struct {
	http.ResponseWriter
	status    int
	encodeErr error
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// statusClass buckets an HTTP status code ("2xx", "4xx", ...).
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	case code >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}

// WriteJSON sends v as a JSON response with the given status code. The
// status header goes out first, so an encode failure cannot change the
// response anymore; the middleware counts it under the route instead.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		if sw, ok := w.(*statusWriter); ok {
			sw.encodeErr = err
		}
	}
}

// errorBody is the stable error shape every endpoint returns.
type errorBody struct {
	Error string `json:"error"`
}

// Error sends the platform's uniform JSON error response.
func Error(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, errorBody{Error: msg})
}

// Errorf is Error with formatting.
func Errorf(w http.ResponseWriter, code int, format string, args ...any) {
	Error(w, code, fmt.Sprintf(format, args...))
}
