// Package metrics is a lightweight runtime metrics registry: monotonic
// counters, gauges and latency histograms that every layer of the stack
// (core protocol, netlink stations, impaired links, chaos harness) feeds,
// and that soaks, benchmarks and chaos runs export as one JSON snapshot.
//
// The hot paths are allocation-free: counters and gauges are single
// atomics, and histograms keep three fixed-size P² quantile estimators
// (internal/stats) instead of sample buffers. Metric objects are obtained
// once — typically at construction time, via Registry.Counter and friends
// — and then updated without any map lookups or locks on the registry.
//
// A process-wide Default registry backs ghm.Metrics() and the -metrics
// flags of cmd/ghmsoak and cmd/ghmbench; components accept an explicit
// *Registry for isolated runs (tests, side-by-side benchmarks).
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"ghm/internal/stats"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (callers keep counters monotonic; deltas must be >= 0).
func (c *Counter) Add(n int64) {
	if n != 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that may move both ways.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram summarizes a stream of samples: count, sum, extrema and
// streaming p50/p95/p99 via the P² estimator. By convention latency
// histograms carry a unit suffix in their name (e.g. ok_latency_ms) and
// are fed values in that unit.
type Histogram struct {
	mu            sync.Mutex
	count         int64
	sum           float64
	min, max      float64
	p50, p95, p99 *stats.Quantile
}

func newHistogram() *Histogram {
	return &Histogram{
		p50: stats.NewQuantile(0.50),
		p95: stats.NewQuantile(0.95),
		p99: stats.NewQuantile(0.99),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.count++
	if h.count == 1 || x < h.min {
		h.min = x
	}
	if h.count == 1 || x > h.max {
		h.max = x
	}
	h.sum += x
	h.p50.Add(x)
	h.p95.Add(x)
	h.p99.Add(x)
	h.mu.Unlock()
}

// Value returns the histogram's current summary.
func (h *Histogram) Value() HistogramValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := HistogramValue{Count: h.count, Min: h.min, Max: h.max}
	if h.count > 0 {
		v.Mean = h.sum / float64(h.count)
		v.P50 = h.p50.Value()
		v.P95 = h.p95.Value()
		v.P99 = h.p99.Value()
	}
	return v
}

// HistogramValue is a point-in-time histogram summary.
type HistogramValue struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Registry is a namespace of metrics. All methods are safe for concurrent
// use; the getters return the existing metric when the name is already
// registered, so independent components sharing a name share the metric
// (their counts sum — e.g. both directions of a link under "link.").
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	gaugeSums map[string][]*sumTerm
	hists     map[string]*Histogram
}

// sumTerm is one component's contribution to a summed gauge; the pointer
// is its identity for removal.
type sumTerm struct{ fn func() float64 }

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		gaugeSums: make(map[string][]*sumTerm),
		hists:     make(map[string]*Histogram),
	}
}

var defaultRegistry = New()

// Default returns the process-wide registry, the one ghm.Metrics() and
// the command-line -metrics flags export.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFuncSum adds fn to the functions registered under name: the gauge
// reads their sum at snapshot time, so components sharing a registry and a
// name share the gauge the way they share a counter. The returned remove
// takes fn out again — a registry outlives most of what reports to it, and
// until then it holds fn and everything fn reaches. A name whose last
// function is removed leaves the snapshot.
func (r *Registry) GaugeFuncSum(name string, fn func() float64) (remove func()) {
	t := &sumTerm{fn: fn}
	r.mu.Lock()
	r.gaugeSums[name] = append(r.gaugeSums[name], t)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		terms := r.gaugeSums[name]
		if i := slices.Index(terms, t); i >= 0 {
			terms = slices.Delete(terms, i, i+1)
		}
		if len(terms) == 0 {
			delete(r.gaugeSums, name)
		} else {
			r.gaugeSums[name] = terms
		}
	}
}

// Histogram returns the histogram registered under name, creating it if
// new.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value. Metrics keep moving
// while the snapshot is taken; each individual value is consistent but
// the snapshot is not a global atomic cut.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeSums := make(map[string][]*sumTerm, len(r.gaugeSums))
	for k, v := range r.gaugeSums {
		gaugeSums[k] = slices.Clone(v)
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)+len(gaugeSums)),
		Histograms: make(map[string]HistogramValue, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, terms := range gaugeSums {
		var sum float64
		for _, t := range terms {
			sum += t.fn()
		}
		s.Gauges[k] = sum
	}
	for k, h := range hists {
		s.Histograms[k] = h.Value()
	}
	return s
}

// Snapshot is a point-in-time export of a registry. encoding/json sorts
// map keys, so the JSON rendering is stable for golden comparisons.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "error", err.Error())
	}
	return string(b)
}
