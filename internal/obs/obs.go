// Package obs is the telemetry substrate for the measurement platform: a
// dependency-free registry of labeled counters, gauges, and fixed-bucket
// histograms, a Prometheus-text-format exposition writer, and a
// lightweight hierarchical span API for tracing a campaign run.
//
// The metric types are lock-cheap (atomic hot paths) and safe for
// concurrent use from many pinger goroutines. Every method is nil-safe on
// its receiver, so instrumented code never needs "if metrics != nil"
// guards: a nil *Counter, *Gauge, *Histogram, or *Span is an inert no-op.
//
// Real measurement platforms live and die by self-observability — RIPE
// Atlas exposes probe and measurement status APIs — and the paper's
// nine-month, 3.2M-datapoint campaign is exactly the kind of run that
// needs progress and health reporting while it executes.
package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Kind discriminates the metric families a Registry can hold.
type Kind string

// Metric family kinds, matching the Prometheus TYPE names.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds metric families by name. All methods are safe for
// concurrent use; registration is idempotent (asking for an existing
// family with an identical shape returns the same vector).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric: its metadata plus the label-keyed instances.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu        sync.RWMutex
	instances map[string]any // labelKey -> *Counter | *Gauge | *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// ValidName reports whether name is a legal Prometheus metric or label
// name, [a-zA-Z_:][a-zA-Z0-9_:]*. The repo's name lint
// (scripts/namelint) checks registered metric names and logger keys
// against the same rule the registry enforces at run time.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use. It
// panics on an invalid name or on re-registration with a different shape —
// both are programming errors, caught by any test that touches the metric.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !ValidName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !slices.Equal(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:      name,
		help:      help,
		kind:      kind,
		labels:    append([]string(nil), labels...),
		buckets:   append([]float64(nil), buckets...),
		instances: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// labelKey joins label values into a map key. \xff cannot appear in a
// UTF-8 label value byte stream's role as a separator collision risk is
// negligible for our controlled label sets.
func labelKey(values []string) string {
	return strings.Join(values, "\xff")
}

// instance returns (creating if needed) the metric under the given label
// values, using mk to build a fresh one.
func (f *family) instance(values []string, mk func() any) any {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	m, ok := f.instances[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.instances[key]; ok {
		return m
	}
	m = mk()
	f.instances[key] = m
	return m
}

// sortedKeys returns m's keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Counter returns the unlabeled counter registered under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec returns the counter family registered under name with the
// given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// Gauge returns the unlabeled gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec returns the gauge family registered under name with the given
// label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// Histogram returns the unlabeled histogram registered under name with
// the given bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec returns the histogram family registered under name with
// the given bucket upper bounds and label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending: %v", name, buckets))
		}
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, buckets)}
}
