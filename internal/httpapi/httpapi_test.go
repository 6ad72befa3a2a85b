package httpapi

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

func TestWriteJSONEncodeErrorSurfaced(t *testing.T) {
	reg := obs.NewRegistry()
	in := Instruments{
		Requests:     reg.CounterVec("test_requests_total", "Requests.", "route", "class"),
		EncodeErrors: reg.CounterVec("test_encode_errors_total", "Encode failures.", "route"),
	}
	mux := http.NewServeMux()
	Register(mux, in, []Route{
		{Pattern: "GET /bad", Name: "bad", Handler: func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusOK, map[string]any{"ch": make(chan int)}) // unencodable
		}},
		{Pattern: "GET /ok", Name: "ok", Handler: func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusOK, map[string]int{"n": 1})
		}},
	})
	mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/bad", nil))
	if got := in.EncodeErrors.With("bad").Value(); got != 1 {
		t.Errorf("encode errors = %d, want 1", got)
	}
	// The status class is still recorded (2xx: header went out first).
	if got := in.Requests.With("bad", "2xx").Value(); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}

	// A clean response records no encode error.
	mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ok", nil))
	if got := in.EncodeErrors.With("ok").Value(); got != 0 {
		t.Errorf("clean route encode errors = %d", got)
	}
}
