// Package obs is D2's zero-dependency observability layer: a metrics
// registry of atomic counters, gauges, and fixed-bucket histograms with
// allocation-free hot paths, snapshot/merge support for cluster-wide
// aggregation, Prometheus-text and JSON export, a ring-buffer-backed
// structured event log, and an admin HTTP mux (/metrics, /statsz,
// /eventz, pprof). Every layer of the live system — transport, node,
// client, fs — and the simulator report through it, so experiment
// counters and production counters share one code path.
//
// Naming convention: metrics are named like Prometheus series,
// `d2_<layer>_<what>[_total]{label="value"}` — the optional label block
// is part of the registry key and is parsed back out by the Prometheus
// exporter. Counters end in _total; histograms carry their unit in the
// name (_ns, _bytes); gauges are instantaneous values and are summed
// across nodes by Merge.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; Inc/Add are lock-free and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways (store bytes,
// in-flight requests). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations (latency
// in nanoseconds, sizes in bytes, small counts like hops). Observation i
// lands in the first bucket with v <= bounds[i], or the overflow bucket.
// Observe is lock-free and allocation-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow (+Inf)
	sum    atomic.Int64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. The bounds slice is copied.
func NewHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// NumBuckets returns the bucket count including the overflow bucket.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// Bounds returns the finite upper bounds (NumBuckets - 1 of them). The
// slice is the histogram's own and must not be modified.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// ReadCounts copies the current per-bucket counts into dst, which must
// hold NumBuckets entries. Allocation-free: history samplers read whole
// histograms on every tick through it.
func (h *Histogram) ReadCounts(dst []uint64) {
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
}

// Common bucket sets. Bounds are upper bounds in the metric's unit.
var (
	// LatencyBuckets spans 50µs to 10s, in nanoseconds.
	LatencyBuckets = []int64{
		50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000,
		25_000_000, 50_000_000, 100_000_000, 250_000_000,
		500_000_000, 1_000_000_000, 2_500_000_000, 10_000_000_000,
	}
	// SizeBuckets spans 64 B to 16 MiB, in bytes.
	SizeBuckets = []int64{
		64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
		256 << 10, 1 << 20, 4 << 20, 16 << 20,
	}
	// CountBuckets suits small discrete quantities: lookup hops, batch
	// fan-out widths, pipeline depths.
	CountBuckets = []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128}
)

// Registry holds named metrics. Registration takes a lock; the returned
// metric handles are then used directly, so the hot path never touches
// the registry again. Metric names must be unique within their type; a
// second registration of the same name returns the existing metric.
type Registry struct {
	mu         sync.Mutex
	version    uint64
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

var defaultRegistry = New()

// Default returns the process-wide registry, for single-node processes
// (d2node) where process scope and node scope coincide.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.version++
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.version++
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at snapshot time
// (store volume, ring position load). The function must be safe to call
// from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
	r.version++
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
		r.version++
	}
	return h
}

// Version returns a counter bumped by every registration. History
// samplers cache enumerated metric handles keyed on it, rebuilding only
// when the registry actually grew, so the steady-state sampling tick
// never touches the registry maps.
func (r *Registry) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// VisitCounters calls fn for every registered counter (unordered). fn
// must not re-enter the registry.
func (r *Registry) VisitCounters(fn func(name string, c *Counter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		fn(name, c)
	}
}

// VisitGauges calls fn for every registered gauge (unordered).
func (r *Registry) VisitGauges(fn func(name string, g *Gauge)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, g := range r.gauges {
		fn(name, g)
	}
}

// VisitGaugeFuncs calls fn for every registered gauge function
// (unordered). The visited functions are evaluated later, by the caller.
func (r *Registry) VisitGaugeFuncs(fn func(name string, f func() int64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, f := range r.gaugeFuncs {
		fn(name, f)
	}
}

// VisitHistograms calls fn for every registered histogram (unordered).
func (r *Registry) VisitHistograms(fn func(name string, h *Histogram)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, h := range r.hists {
		fn(name, h)
	}
}

// sortedKeys returns map keys in sorted order, for deterministic export.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
