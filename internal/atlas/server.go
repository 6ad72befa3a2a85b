package atlas

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/probe"
)

// Server exposes the platform over HTTP+JSON, mirroring the parts of the
// RIPE Atlas REST API the paper's methodology uses: probe discovery with
// tag filtering, measurement creation, status polling, and result
// retrieval, guarded by credit accounting.
type Server struct {
	platform *Platform
	ledger   *Ledger
	live     *LiveService
	mux      *http.ServeMux
	metrics  *Metrics
	events   *obs.Recorder
	serving  func() any
	started  time.Time
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerMetrics instruments every route with request/duration/error
// accounting and additionally serves GET /metrics (Prometheus text
// exposition of the metrics' registry).
func WithServerMetrics(m *Metrics) ServerOption {
	return func(s *Server) { s.metrics = m }
}

// WithServerEvents additionally serves GET /debug/events: a JSON dump of
// the flight recorder's retained structured-log events.
func WithServerEvents(rec *obs.Recorder) ServerOption {
	return func(s *Server) { s.events = rec }
}

// WithServerServing embeds fn's result in the status report under
// "serving" — the query-serving layer's snapshot coverage, provided as
// a closure so this package needs no dependency on the serving engine.
func WithServerServing(fn func() any) ServerOption {
	return func(s *Server) { s.serving = fn }
}

// NewServer wires the HTTP handlers.
func NewServer(p *Platform, ledger *Ledger, live *LiveService, opts ...ServerOption) (*Server, error) {
	if p == nil || ledger == nil || live == nil {
		return nil, errors.New("atlas: nil component")
	}
	s := &Server{platform: p, ledger: ledger, live: live, mux: http.NewServeMux(), started: time.Now()}
	for _, o := range opts {
		o(s)
	}
	allow := map[string][]string{} // each path's methods, in table order
	for _, r := range []struct {
		pattern string
		route   string // metric label: one value per pattern, no IDs
		h       http.HandlerFunc
	}{
		{"GET /api/v1/probes", "probes", s.handleProbes},
		{"GET /api/v1/probes/{id}", "probe", s.handleProbe},
		{"GET /api/v1/regions", "regions", s.handleRegions},
		{"GET /api/v1/credits/{account}", "credits", s.handleCredits},
		{"GET /api/v1/measurements", "measurement_list", s.handleList},
		{"POST /api/v1/measurements", "measurement_create", s.handleCreate},
		{"GET /api/v1/measurements/{id}", "measurement_get", s.handleMeasurement},
		{"GET /api/v1/measurements/{id}/results", "measurement_results", s.handleResults},
		{"DELETE /api/v1/measurements/{id}", "measurement_stop", s.handleStop},
		{"GET /api/v1/status", "status", s.handleStatus},
	} {
		s.mux.HandleFunc(r.pattern, s.metrics.instrument(r.route, r.h))
		method, path, _ := strings.Cut(r.pattern, " ")
		allow[path] = append(allow[path], method)
	}
	// Uniform method handling: a wrong method on a known path answers
	// 405 with an Allow header, not the mux's bare 404. The
	// method-qualified patterns above are more specific and keep
	// winning for the methods they name.
	for path, methods := range allow {
		s.mux.HandleFunc(path, s.metrics.instrument("method_not_allowed",
			func(w http.ResponseWriter, r *http.Request) {
				httpapi.MethodNotAllowed(w, r, methods...)
			}))
	}
	if s.metrics != nil && s.metrics.Registry != nil {
		s.mux.Handle("GET /metrics", obs.MetricsHandler(s.metrics.Registry))
	}
	if s.events != nil {
		s.mux.Handle("GET /debug/events", obs.EventsHandler(s.events))
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON sends a JSON response through the shared httpapi encoding.
// An encode failure is surfaced to the request-metrics middleware
// (which counts it per route) instead of being silently discarded.
func writeJSON(w http.ResponseWriter, code int, v any) {
	if err := httpapi.WriteJSON(w, code, v); err != nil {
		if sw, ok := w.(*statusWriter); ok {
			sw.encodeErr = err
		}
	}
}

// writeError sends the platform's uniform {"error": ...} JSON shape.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// ProbeDTO is the wire representation of a probe.
type ProbeDTO struct {
	ID        int      `json:"id"`
	Country   string   `json:"country"`
	Continent string   `json:"continent"`
	Lat       float64  `json:"lat"`
	Lon       float64  `json:"lon"`
	Tags      []string `json:"tags"`
}

func toProbeDTO(p *probe.Probe) ProbeDTO {
	return ProbeDTO{
		ID:        p.ID,
		Country:   p.Country,
		Continent: p.Continent.Code(),
		Lat:       p.Location.Lat,
		Lon:       p.Location.Lon,
		Tags:      p.Tags,
	}
}

func (s *Server) handleProbes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	country := q.Get("country")
	tag := q.Get("tag")
	var continent geo.Continent
	if c := q.Get("continent"); c != "" {
		ct, err := geo.ParseContinent(c)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		continent = ct
	}
	limit := 0
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", l))
			return
		}
		limit = n
	}
	var out []ProbeDTO
	for _, p := range s.platform.Population.Public() {
		if country != "" && p.Country != country {
			continue
		}
		if continent != geo.ContinentUnknown && p.Continent != continent {
			continue
		}
		if tag != "" && !p.HasTag(tag) {
			continue
		}
		out = append(out, toProbeDTO(p))
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad probe id"))
		return
	}
	p, ok := s.platform.Population.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("probe %d not found", id))
		return
	}
	writeJSON(w, http.StatusOK, toProbeDTO(p))
}

// RegionDTO is the wire representation of a cloud region.
type RegionDTO struct {
	Addr     string  `json:"addr"`
	Provider string  `json:"provider"`
	City     string  `json:"city"`
	Country  string  `json:"country"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	var out []RegionDTO
	for _, reg := range s.platform.Catalog.All() {
		out = append(out, RegionDTO{
			Addr:     reg.Addr(),
			Provider: reg.Provider.Name,
			City:     reg.City,
			Country:  reg.Country,
			Lat:      reg.Location.Lat,
			Lon:      reg.Location.Lon,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCredits(w http.ResponseWriter, r *http.Request) {
	account := r.PathValue("account")
	writeJSON(w, http.StatusOK, map[string]any{
		"account": account,
		"balance": s.ledger.Balance(account),
		"spent":   s.ledger.Spent(account),
	})
}

// SpecDTO is the wire form of a MeasurementSpec (durations in ms).
type SpecDTO struct {
	Account    string `json:"account"`
	Target     string `json:"target"`
	ProbeIDs   []int  `json:"probe_ids"`
	Count      int    `json:"count"`
	IntervalMs int64  `json:"interval_ms"`
	TimeoutMs  int64  `json:"timeout_ms"`
}

// Spec converts the DTO to the internal spec. A millisecond count
// whose Duration would overflow is an error, not a wrapped value.
func (d SpecDTO) Spec() (MeasurementSpec, error) {
	const limit = math.MaxInt64 / int64(time.Millisecond)
	for _, ms := range []int64{d.IntervalMs, d.TimeoutMs} {
		if ms > limit || ms < -limit {
			return MeasurementSpec{}, fmt.Errorf("atlas: %d ms overflows a duration", ms)
		}
	}
	return MeasurementSpec{
		Target:   d.Target,
		ProbeIDs: d.ProbeIDs,
		Count:    d.Count,
		Interval: time.Duration(d.IntervalMs) * time.Millisecond,
		Timeout:  time.Duration(d.TimeoutMs) * time.Millisecond,
	}, nil
}

// maxCreateBody bounds a measurement request body; a spec naming every
// probe of a paper-scale world is a few tens of kilobytes.
const maxCreateBody = 1 << 20

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var dto SpecDTO
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBody)).Decode(&dto); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad body: %w", err))
		return
	}
	if dto.Account == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing account"))
		return
	}
	spec, err := dto.Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.live.Create(dto.Account, spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrInsufficientCredits) {
			code = http.StatusPaymentRequired
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": id})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	account := r.URL.Query().Get("account")
	writeJSON(w, http.StatusOK, s.live.List(account))
}

func (s *Server) measurementFromPath(w http.ResponseWriter, r *http.Request) (Measurement, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad measurement id"))
		return Measurement{}, false
	}
	m, ok := s.live.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("measurement %d not found", id))
		return Measurement{}, false
	}
	return m, true
}

func (s *Server) handleMeasurement(w http.ResponseWriter, r *http.Request) {
	m, ok := s.measurementFromPath(w, r)
	if !ok {
		return
	}
	m.Results = nil // status endpoint omits the payload
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	m, ok := s.measurementFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, m.Results)
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad measurement id"))
		return
	}
	if err := s.live.Stop(id); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	m, _ := s.live.Get(id)
	m.Results = nil
	writeJSON(w, http.StatusOK, m)
}

// CampaignStatusDTO is the campaign-progress slice of the status report.
type CampaignStatusDTO struct {
	RoundsDone         float64           `json:"rounds_done"`
	RoundsTotal        float64           `json:"rounds_total"`
	Samples            uint64            `json:"samples"`
	SamplesLost        uint64            `json:"samples_lost"`
	SamplesByContinent map[string]uint64 `json:"samples_by_continent,omitempty"`
}

// StatusDTO is the platform self-observability snapshot served at
// GET /api/v1/status, in the spirit of RIPE Atlas's status APIs. Build
// mirrors the run manifest's identity fields, so a live server and an
// archived run are traceable the same way; Serving carries the query
// layer's snapshot coverage when one is embedded.
type StatusDTO struct {
	UptimeSeconds    float64           `json:"uptime_seconds"`
	Build            obs.BuildInfo     `json:"build"`
	Probes           int               `json:"probes"`
	Regions          int               `json:"regions"`
	Measurements     map[Status]int    `json:"measurements"`
	ResultsCollected uint64            `json:"results_collected"`
	ProbeTimeouts    uint64            `json:"probe_timeouts"`
	Campaign         CampaignStatusDTO `json:"campaign"`
	Serving          any               `json:"serving,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := StatusDTO{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Build:         obs.CurrentBuild(),
		Probes:        s.platform.Population.Len(),
		Regions:       s.platform.Catalog.Len(),
		Measurements:  make(map[Status]int),
	}
	if s.serving != nil {
		st.Serving = s.serving()
	}
	for _, m := range s.live.List("") {
		st.Measurements[m.Status]++
	}
	if m := s.metrics; m != nil {
		st.ResultsCollected = m.ResultsCollected.Value()
		st.ProbeTimeouts = m.ProbeTimeouts.Value()
		st.Campaign = CampaignStatusDTO{
			RoundsDone:  m.CampaignRoundsDone.Value(),
			RoundsTotal: m.CampaignRoundsTotal.Value(),
			Samples:     m.CampaignSamples.Sum(),
			SamplesLost: m.CampaignLost.Value(),
		}
		m.CampaignSamples.Walk(func(labels []string, v uint64) {
			if st.Campaign.SamplesByContinent == nil {
				st.Campaign.SamplesByContinent = make(map[string]uint64)
			}
			st.Campaign.SamplesByContinent[labels[0]] = v
		})
	}
	writeJSON(w, http.StatusOK, st)
}
