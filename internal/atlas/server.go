package atlas

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
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
	metrics  *Metrics
	serving  func() any
	started  time.Time
}

// NewServer builds the API server. m, when non-nil, instruments every
// route; serving, when non-nil, supplies the status report's "serving"
// block — the query-serving layer's snapshot coverage, provided as a
// closure so this package needs no dependency on the serving engine.
func NewServer(p *Platform, ledger *Ledger, live *LiveService, m *Metrics, serving func() any) (*Server, error) {
	if p == nil || ledger == nil || live == nil {
		return nil, errors.New("atlas: nil component")
	}
	return &Server{platform: p, ledger: ledger, live: live, metrics: m, serving: serving, started: time.Now()}, nil
}

// Register adds the API's route table to mux.
func (s *Server) Register(mux *http.ServeMux) {
	var in httpapi.Instruments
	if m := s.metrics; m != nil {
		in = httpapi.Instruments{Requests: m.ReqTotal, Seconds: m.ReqDur, EncodeErrors: m.EncodeErrors}
	}
	httpapi.Register(mux, in, []httpapi.Route{
		{Pattern: "GET /api/v1/probes", Name: "probes", Handler: s.handleProbes},
		{Pattern: "GET /api/v1/probes/{id}", Name: "probe", Handler: s.handleProbe},
		{Pattern: "GET /api/v1/regions", Name: "regions", Handler: s.handleRegions},
		{Pattern: "GET /api/v1/credits/{account}", Name: "credits", Handler: s.handleCredits},
		{Pattern: "GET /api/v1/measurements", Name: "measurement_list", Handler: s.handleList},
		{Pattern: "POST /api/v1/measurements", Name: "measurement_create", Handler: s.handleCreate},
		{Pattern: "GET /api/v1/measurements/{id}", Name: "measurement_get", Handler: s.handleMeasurement},
		{Pattern: "GET /api/v1/measurements/{id}/results", Name: "measurement_results", Handler: s.handleResults},
		{Pattern: "DELETE /api/v1/measurements/{id}", Name: "measurement_stop", Handler: s.handleStop},
		{Pattern: "GET /api/v1/status", Name: "status", Handler: s.handleStatus},
	})
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
			httpapi.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		continent = ct
	}
	limit := 0
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			httpapi.Errorf(w, http.StatusBadRequest, "bad limit %q", l)
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
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "bad probe id")
		return
	}
	p, ok := s.platform.Population.Lookup(id)
	if !ok {
		httpapi.Errorf(w, http.StatusNotFound, "probe %d not found", id)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, toProbeDTO(p))
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
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleCredits(w http.ResponseWriter, r *http.Request) {
	account := r.PathValue("account")
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
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
		httpapi.Errorf(w, code, "bad body: %v", err)
		return
	}
	if dto.Account == "" {
		httpapi.Error(w, http.StatusBadRequest, "missing account")
		return
	}
	spec, err := dto.Spec()
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	id, err := s.live.Create(dto.Account, spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrInsufficientCredits) {
			code = http.StatusPaymentRequired
		}
		httpapi.Error(w, code, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusCreated, map[string]int{"id": id})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	account := r.URL.Query().Get("account")
	httpapi.WriteJSON(w, http.StatusOK, s.live.List(account))
}

func (s *Server) measurementFromPath(w http.ResponseWriter, r *http.Request) (Measurement, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "bad measurement id")
		return Measurement{}, false
	}
	m, ok := s.live.Get(id)
	if !ok {
		httpapi.Errorf(w, http.StatusNotFound, "measurement %d not found", id)
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
	httpapi.WriteJSON(w, http.StatusOK, m)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	m, ok := s.measurementFromPath(w, r)
	if !ok {
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, m.Results)
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "bad measurement id")
		return
	}
	if err := s.live.Stop(id); err != nil {
		httpapi.Error(w, http.StatusConflict, err.Error())
		return
	}
	m, _ := s.live.Get(id)
	m.Results = nil
	httpapi.WriteJSON(w, http.StatusOK, m)
}

// StatusDTO is the platform self-observability snapshot served at
// GET /api/v1/status, in the spirit of RIPE Atlas's status APIs. Build
// mirrors the run manifest's identity fields, so a live server and an
// archived run are traceable the same way; Serving carries the query
// layer's snapshot coverage when one is embedded.
type StatusDTO struct {
	UptimeSeconds    float64        `json:"uptime_seconds"`
	Build            obs.BuildInfo  `json:"build"`
	Probes           int            `json:"probes"`
	Regions          int            `json:"regions"`
	Measurements     map[Status]int `json:"measurements"`
	ResultsCollected uint64         `json:"results_collected"`
	ProbeTimeouts    uint64         `json:"probe_timeouts"`
	Serving          any            `json:"serving,omitempty"`
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
	}
	httpapi.WriteJSON(w, http.StatusOK, st)
}
