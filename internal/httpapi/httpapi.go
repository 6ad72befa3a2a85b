// Package httpapi holds the small wire conventions every HTTP surface
// of the platform shares: JSON responses, the stable {"error": ...}
// error shape, and uniform 405 handling. Handlers across atlasd (the
// platform API and the serving layer) all encode through these helpers so clients see one contract — errors
// are always JSON with Content-Type application/json, never a mix of
// plain-text http.Error bodies and ad-hoc encodings.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// WriteJSON sends v as a JSON response with the given status code. The
// status header goes out first, so an encode failure cannot change the
// response anymore; the error is returned for callers that surface it
// (e.g. to request metrics) and safe to ignore otherwise.
func WriteJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return json.NewEncoder(w).Encode(v)
}

// errorBody is the stable error shape every endpoint returns.
type errorBody struct {
	Error string `json:"error"`
}

// Error sends the platform's uniform JSON error response.
func Error(w http.ResponseWriter, code int, msg string) {
	_ = WriteJSON(w, code, errorBody{Error: msg})
}

// Errorf is Error with formatting.
func Errorf(w http.ResponseWriter, code int, format string, args ...any) {
	Error(w, code, fmt.Sprintf(format, args...))
}

// MethodNotAllowed sends a 405 with the Allow header listing the
// methods the resource supports, keeping the JSON error shape (the
// stdlib mux's automatic 405 writes a plain-text body).
func MethodNotAllowed(w http.ResponseWriter, r *http.Request, allow ...string) {
	w.Header().Set("Allow", strings.Join(allow, ", "))
	Errorf(w, http.StatusMethodNotAllowed, "method %s not allowed (allow: %s)",
		r.Method, strings.Join(allow, ", "))
}
