package obsv

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; no-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count, zero on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric with a set-if-greater high-water helper.
type Gauge struct{ v atomic.Int64 }

// Set stores the value; no-op on nil.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value, zero on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram collects float64 samples and summarizes them with exact
// nearest-rank quantiles. Samples are retained; at simulator scale (one
// sample per layer, job or grid point) exactness is worth more than a
// bucketed sketch.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sum     float64
}

// Observe records one sample; no-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sum += v
	h.mu.Unlock()
}

// HistogramSnapshot is a histogram's summary at one point in time.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the samples observed so far; the zero snapshot on
// nil or empty histograms.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	sorted := append([]float64(nil), h.samples...)
	sum := h.sum
	h.mu.Unlock()
	if len(sorted) == 0 {
		return HistogramSnapshot{}
	}
	sort.Float64s(sorted)
	return HistogramSnapshot{
		Count: int64(len(sorted)),
		Sum:   sum,
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   quantile(sorted, 0.50),
		P95:   quantile(sorted, 0.95),
		P99:   quantile(sorted, 0.99),
	}
}

// Quantile returns the nearest-rank p-quantile (0 < p <= 1) of the
// samples observed so far, zero when empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	sorted := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	return quantile(sorted, p)
}

// quantile is the nearest-rank quantile of an ascending-sorted non-empty
// slice: the smallest sample such that at least p of the distribution is
// at or below it.
func quantile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Registry is a named collection of counters, gauges and histograms.
// Accessors create on first use; every method is safe for concurrent use
// and nil-safe, so a disabled registry can be recorded into freely.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Counter returns the named counter, creating it on first use; nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// SetProcessGauges sets process.peak_rss_bytes and process.minor_faults,
// read now as a manifest reads them; one that cannot be read is left out.
func (r *Registry) SetProcessGauges() {
	var rs RuntimeStats
	readProcess(&rs)
	if rs.PeakRSSBytes > 0 {
		r.Gauge("process.peak_rss_bytes").Set(int64(rs.PeakRSSBytes))
	}
	if rs.MinorFaults > 0 {
		r.Gauge("process.minor_faults").Set(rs.MinorFaults)
	}
}

// Histogram returns the named histogram, creating it on first use; nil on
// a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// MetricsSnapshot is a registry's full contents at one point in time.
// encoding/json serializes the maps with sorted keys, so snapshots of
// identical runs diff cleanly.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Empty reports whether the snapshot holds no metrics at all.
func (s MetricsSnapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Snapshot captures every metric in the registry.
func (r *Registry) Snapshot() MetricsSnapshot {
	var snap MetricsSnapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			snap.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			snap.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, v := range hists {
			snap.Histograms[k] = v.Snapshot()
		}
	}
	return snap
}
