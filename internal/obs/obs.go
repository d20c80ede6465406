// Package obs is the deterministic, observe-only observability layer: a
// typed metrics registry (counters, gauges, fixed-bucket histograms), a span
// recorder, a Perfetto/Chrome trace_event exporter over its recordings, and
// a critical-path analyzer over the span graph of a collective call.
//
// Determinism contract: the registry reads no wall clock and draws no
// randomness; instruments only record values their callers already computed
// from virtual clocks and deterministic counters. Attaching a Registry to a
// run therefore never moves a virtual timestamp — an instrumented run is
// bit-identical in virtual time to a bare one (pinned by the root
// obs_test.go goldens). Snapshots and exports sort every series by name, so
// two identical runs serialize to identical bytes.
//
// The simulation engine runs ranks one at a time, so a single Registry is
// shared by all ranks of a run without locking, as is a Recorder.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a last-write-wins level with a tracked maximum.
type Gauge struct {
	v, max float64
	set    bool
}

// Set records the current level.
func (g *Gauge) Set(v float64) {
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// SetMax records v only when it exceeds the tracked maximum (a high-water
// mark; Value then reports the maximum).
func (g *Gauge) SetMax(v float64) {
	if !g.set || v > g.max {
		g.max = v
		g.v = v
		g.set = true
	}
}

// Value returns the last set level.
func (g *Gauge) Value() float64 { return g.v }

// Max returns the largest level ever set.
func (g *Gauge) Max() float64 { return g.max }

// Histogram is a fixed-bucket distribution. Bounds are upper bucket edges in
// ascending order; one implicit overflow bucket catches everything above the
// last bound. Buckets are fixed at creation so two runs of the same program
// observe into identical layouts.
type Histogram struct {
	bounds   []float64
	counts   []uint64 // len(bounds)+1
	sum      float64
	count    uint64
	min, max float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// SecondsBuckets is the standard virtual-time bucket layout: log-spaced
// from a microsecond to ten virtual seconds.
func SecondsBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
}

// Registry holds a run's instruments, keyed by name. Get-or-create accessors
// let instrumentation sites stay one-liners; hot paths should hold the
// returned instrument instead of re-resolving the name.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero if needed.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds if needed (nil bounds default to SecondsBuckets). Re-resolving an
// existing histogram ignores the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = SecondsBuckets()
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// CounterPoint is one counter's snapshot value.
type CounterPoint struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugePoint is one gauge's snapshot value.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// HistogramPoint is one histogram's snapshot.
type HistogramPoint struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Snapshot is a frozen, name-sorted copy of a registry — the form that
// travels in experiment Results and serializes deterministically.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. Series are sorted by name, so snapshots of
// identical runs compare (and serialize) identically.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.v})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.v, Max: g.max})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramPoint{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
			Min:    h.min,
			Max:    h.max,
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// JSON serializes the snapshot with stable formatting.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// String renders the snapshot as an aligned text report.
func (s Snapshot) String() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-42s %d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-42s %g (max %g)\n", g.Name, g.Value, g.Max)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-42s n=%d sum=%.6g mean=%.6g min=%.6g max=%.6g\n",
				h.Name, h.Count, h.Sum, mean(h), h.Min, h.Max)
		}
	}
	return b.String()
}

func mean(h HistogramPoint) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Equal reports whether two snapshots carry bit-identical values — the
// instrumented-vs-bare determinism check. Float fields compare by bits, not
// tolerance: virtual-time metrics must match exactly.
func (s Snapshot) Equal(o Snapshot) bool {
	a, err1 := json.Marshal(s)
	b, err2 := json.Marshal(o)
	if err1 != nil || err2 != nil {
		return false
	}
	return string(a) == string(b)
}
