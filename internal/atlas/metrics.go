package atlas

import (
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/ping"
)

// Metrics bundles the platform server's telemetry instruments: HTTP
// request accounting for the API routes, credit flow, live-measurement
// lifecycle, and the pinger/network instruments shared with the lower
// layers. All fields are optional; a nil *Metrics (or any nil field)
// disables that instrument. A campaign's progress is CampaignMetrics.
type Metrics struct {
	// HTTP middleware instruments (httpapi.Instruments).
	ReqTotal     *obs.CounterVec   // route, class ("2xx", "4xx", ..., "canceled")
	ReqDur       *obs.HistogramVec // route; seconds
	EncodeErrors *obs.CounterVec   // route; JSON encode failures

	// Credit ledger flow.
	CreditsGranted  *obs.Counter
	CreditsSpent    *obs.Counter
	CreditsRefunded *obs.Counter

	// Live measurement lifecycle.
	MeasurementsCreated *obs.Counter
	MeasurementsDone    *obs.Counter
	MeasurementsFailed  *obs.Counter
	MeasurementsStopped *obs.Counter
	ResultsCollected    *obs.Counter
	ProbeTimeouts       *obs.Counter

	// Shared lower-layer instruments.
	Ping *ping.Metrics
	Net  *netsim.Metrics
}

// NewMetrics registers the platform server's instrument set on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		ReqTotal: reg.CounterVec("atlas_http_requests_total",
			"API requests by route and status class.", "route", "class"),
		ReqDur: reg.HistogramVec("atlas_http_request_duration_seconds",
			"API request handling latency.", obs.DurationBuckets, "route"),
		EncodeErrors: reg.CounterVec("atlas_http_encode_errors_total",
			"JSON response bodies that failed to encode after the header was sent.", "route"),

		CreditsGranted:  reg.Counter("atlas_credits_granted_total", "Credits granted to accounts."),
		CreditsSpent:    reg.Counter("atlas_credits_spent_total", "Credits charged for measurements."),
		CreditsRefunded: reg.Counter("atlas_credits_refunded_total", "Credits refunded from stopped or failed measurements."),

		MeasurementsCreated: reg.Counter("atlas_measurements_created_total", "Live measurements accepted."),
		MeasurementsDone:    reg.Counter("atlas_measurements_done_total", "Live measurements that completed."),
		MeasurementsFailed:  reg.Counter("atlas_measurements_failed_total", "Live measurements that failed."),
		MeasurementsStopped: reg.Counter("atlas_measurements_stopped_total", "Live measurements stopped by the user."),
		ResultsCollected:    reg.Counter("atlas_results_collected_total", "Samples collected from live measurements."),
		ProbeTimeouts:       reg.Counter("atlas_probe_timeouts_total", "Live pings that timed out (recorded as loss)."),

		Ping: ping.NewMetrics(reg),
		Net:  netsim.NewMetrics(reg),
	}
}

// CampaignMetrics is the campaign synthesizer's progress (RunCampaign):
// the instrument set a campaign driver registers, apart from the
// server's, which a campaign never updates. A nil *CampaignMetrics (or
// any nil field) disables that instrument.
type CampaignMetrics struct {
	Samples     *obs.CounterVec // continent
	Lost        *obs.Counter
	RoundsDone  *obs.Gauge
	RoundsTotal *obs.Gauge
}

// NewCampaignMetrics registers the campaign progress instruments on reg.
func NewCampaignMetrics(reg *obs.Registry) *CampaignMetrics {
	return &CampaignMetrics{
		Samples: reg.CounterVec("atlas_campaign_samples_total",
			"Campaign samples synthesized, by probe continent.", "continent"),
		Lost:        reg.Counter("atlas_campaign_samples_lost_total", "Campaign samples recorded as loss."),
		RoundsDone:  reg.Gauge("atlas_campaign_rounds_done", "Campaign rounds completed so far."),
		RoundsTotal: reg.Gauge("atlas_campaign_rounds_total", "Campaign rounds planned."),
	}
}
