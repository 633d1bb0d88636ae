// Package history is D2's cluster health engine: a background sampler
// that snapshots an obs.Registry into a fixed-size ring of timestamped
// samples, derived per-second rates and interval latency percentiles
// computed from consecutive samples (true rates, not cumulative
// counters), a threshold-check health evaluator that turns the node's
// /healthz stub into a real status document, and a flight recorder that
// dumps a self-contained JSON diagnostic bundle (health, rates, recent
// events, triggering spans) on health transitions, slow requests, and
// peer deaths.
//
// The hot paths are allocation-free: the sampling tick reads every
// counter, gauge, and histogram bucket through pre-enumerated handles
// into pre-allocated ring slots, and health evaluation computes numeric
// check results into a pre-allocated slice. Handle lists rebuild only
// when the registry's Version changes (registration is a startup-time
// event); everything rendered for humans — status JSON, evidence
// strings, rate documents — lives on the cold serve path.
package history

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
)

// Config parameterizes an Engine. Zero values take the defaults noted.
type Config struct {
	// Registry is the sampled registry (required).
	Registry *obs.Registry
	// Events is the node's event log, included in flight bundles and
	// watched for trigger events. May be nil.
	Events *obs.EventLog
	// Sink is the node's span sink, scraped for the triggering trace's
	// spans in flight bundles. May be nil.
	Sink *tracing.Sink
	// Node labels status documents and bundles ("127.0.0.1:7001").
	Node string
	// Interval is the sampling period (default 2 s).
	Interval time.Duration
	// Window is the ring capacity in samples (default 150 — five
	// minutes of history at the default interval).
	Window int
	// Lookback is how many samples back rates and health deltas reach
	// (default 15 — a 30 s window at the default interval), clamped to
	// the available history.
	Lookback int
	// Checks are the health checks to evaluate each tick; nil uses
	// DefaultChecks.
	Checks []Check
	// FlightDir enables the flight recorder: diagnostic bundles are
	// written there on triggers. Empty disables dumps (Trigger becomes
	// a no-op).
	FlightDir string
	// FlightMinGap rate-limits bundle dumps (default 10 s).
	FlightMinGap time.Duration
}

func (c *Config) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Window <= 1 {
		c.Window = 150
	}
	if c.Lookback <= 0 {
		c.Lookback = 15
	}
	if c.Lookback >= c.Window {
		c.Lookback = c.Window - 1
	}
	if c.Checks == nil {
		c.Checks = DefaultChecks()
	}
	if c.FlightMinGap <= 0 {
		c.FlightMinGap = 10 * time.Second
	}
}

// sample is one ring slot: every metric's value at one instant, in
// pre-allocated arrays parallel to the engine's handle lists.
type sample struct {
	at         int64 // unix nanoseconds; 0 = slot never written
	counters   []uint64
	gauges     []int64    // registered gauges, then gauge funcs
	histCounts [][]uint64 // per-histogram bucket counts
	histSums   []int64
}

// Engine is the health engine: sampler ring, evaluator, and flight
// recorder over one registry. Create with New, then either Start the
// background loop or drive Tick manually (tests, simulators).
type Engine struct {
	cfg Config

	mu      sync.Mutex
	version uint64 // registry version the handle lists were built at

	counterNames []string
	counters     []*obs.Counter
	counterIdx   map[string]int
	gaugeNames   []string // gauges then gauge funcs, matching sample.gauges
	gauges       []*obs.Gauge
	fns          []func() int64
	gaugeIdx     map[string]int
	histNames    []string
	hists        []*obs.Histogram
	histIdx      map[string]int

	ring  []sample
	next  int    // slot the next tick writes
	ticks uint64 // samples taken since the last rebuild

	// scratch holds per-bucket interval deltas during quantile
	// evaluation; sized to the largest histogram.
	scratch []uint64

	view    View
	results []CheckResult
	state   State

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	flightMu   sync.Mutex
	lastFlight time.Time
	flightSeq  int
}

// New creates an engine over cfg.Registry. It takes no samples until
// Start or Tick.
func New(cfg Config) *Engine {
	cfg.applyDefaults()
	e := &Engine{
		cfg:     cfg,
		results: make([]CheckResult, len(cfg.Checks)),
		state:   StateOK,
		stop:    make(chan struct{}),
	}
	for i, c := range cfg.Checks {
		e.results[i] = CheckResult{Name: c.Name, State: StateOK}
	}
	e.view.e = e
	return e
}

// Start launches the background sampling loop. Pair with Close.
func (e *Engine) Start() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		t := time.NewTicker(e.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case now := <-t.C:
				e.Tick(now)
			}
		}
	}()
}

// Close stops the background loop. Idempotent.
func (e *Engine) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
}

// Interval returns the configured sampling period.
func (e *Engine) Interval() time.Duration { return e.cfg.Interval }

// Tick takes one sample and re-evaluates health. Allocation-free in the
// steady state; when the registry grew since the last tick, the handle
// lists and ring slots rebuild first (a startup-time cold path that
// restarts the sample history). Safe to call concurrently with Start's
// loop, though normally one driver owns the clock.
func (e *Engine) Tick(now time.Time) {
	e.mu.Lock()
	if v := e.cfg.Registry.Version(); v != e.version {
		e.rebuildLocked(v)
	}
	s := &e.ring[e.next]
	s.at = now.UnixNano()
	for i, c := range e.counters {
		s.counters[i] = c.Value()
	}
	for i, g := range e.gauges {
		s.gauges[i] = g.Value()
	}
	for i, fn := range e.fns {
		s.gauges[len(e.gauges)+i] = fn()
	}
	for i, h := range e.hists {
		h.ReadCounts(s.histCounts[i])
		s.histSums[i] = h.Sum()
	}
	e.next = (e.next + 1) % len(e.ring)
	e.ticks++

	transition, from, to := e.evaluateLocked()
	e.mu.Unlock()

	if transition {
		e.cfg.Events.Log(obs.LevelWarn, "health.transition",
			"from", from.String(), "to", to.String())
		e.Trigger("health_transition", from.String()+" -> "+to.String(), 0)
	}
}

// rebuildLocked re-enumerates the registry into sorted handle lists and
// re-allocates every ring slot to the new layout. Old samples mix
// layouts, so the history restarts.
func (e *Engine) rebuildLocked(version uint64) {
	e.version = version

	e.counterNames = e.counterNames[:0]
	e.counters = e.counters[:0]
	e.cfg.Registry.VisitCounters(func(name string, c *obs.Counter) {
		e.counterNames = append(e.counterNames, name)
		e.counters = append(e.counters, c)
	})
	sortParallel(e.counterNames, func(i, j int) {
		e.counters[i], e.counters[j] = e.counters[j], e.counters[i]
	})
	e.counterIdx = indexOf(e.counterNames)

	e.gaugeNames = e.gaugeNames[:0]
	e.gauges = e.gauges[:0]
	e.cfg.Registry.VisitGauges(func(name string, g *obs.Gauge) {
		e.gaugeNames = append(e.gaugeNames, name)
		e.gauges = append(e.gauges, g)
	})
	sortParallel(e.gaugeNames, func(i, j int) {
		e.gauges[i], e.gauges[j] = e.gauges[j], e.gauges[i]
	})
	fnNames := []string(nil)
	e.fns = e.fns[:0]
	e.cfg.Registry.VisitGaugeFuncs(func(name string, f func() int64) {
		fnNames = append(fnNames, name)
		e.fns = append(e.fns, f)
	})
	sortParallel(fnNames, func(i, j int) {
		e.fns[i], e.fns[j] = e.fns[j], e.fns[i]
	})
	e.gaugeNames = append(e.gaugeNames, fnNames...)
	e.gaugeIdx = indexOf(e.gaugeNames)

	e.histNames = e.histNames[:0]
	e.hists = e.hists[:0]
	e.cfg.Registry.VisitHistograms(func(name string, h *obs.Histogram) {
		e.histNames = append(e.histNames, name)
		e.hists = append(e.hists, h)
	})
	sortParallel(e.histNames, func(i, j int) {
		e.hists[i], e.hists[j] = e.hists[j], e.hists[i]
	})
	e.histIdx = indexOf(e.histNames)

	maxBuckets := 0
	for _, h := range e.hists {
		if n := h.NumBuckets(); n > maxBuckets {
			maxBuckets = n
		}
	}
	e.scratch = make([]uint64, maxBuckets)

	if len(e.ring) != e.cfg.Window {
		e.ring = make([]sample, e.cfg.Window)
	}
	for i := range e.ring {
		s := &e.ring[i]
		s.at = 0
		s.counters = make([]uint64, len(e.counters))
		s.gauges = make([]int64, len(e.gauges)+len(e.fns))
		s.histCounts = make([][]uint64, len(e.hists))
		for j, h := range e.hists {
			s.histCounts[j] = make([]uint64, h.NumBuckets())
		}
		s.histSums = make([]int64, len(e.hists))
	}
	e.next = 0
	e.ticks = 0
}

// sortParallel sorts names ascending, applying the same swaps to a
// parallel slice via swap.
func sortParallel(names []string, swap func(i, j int)) {
	sort.Sort(&parallelSorter{names: names, swap: swap})
}

type parallelSorter struct {
	names []string
	swap  func(i, j int)
}

func (p *parallelSorter) Len() int           { return len(p.names) }
func (p *parallelSorter) Less(i, j int) bool { return p.names[i] < p.names[j] }
func (p *parallelSorter) Swap(i, j int) {
	p.names[i], p.names[j] = p.names[j], p.names[i]
	p.swap(i, j)
}

func indexOf(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, n := range names {
		m[n] = i
	}
	return m
}

// sampleAt returns the k-th most recent sample (0 = newest), or nil when
// fewer than k+1 samples exist.
func (e *Engine) sampleAt(k int) *sample {
	if uint64(k) >= e.ticks {
		return nil
	}
	if k >= len(e.ring) {
		return nil
	}
	i := (e.next - 1 - k + 2*len(e.ring)) % len(e.ring)
	return &e.ring[i]
}

// lookbackSamples returns the newest sample and the one Lookback ticks
// older (clamped to the oldest available), or nils without history.
func (e *Engine) lookbackSamples() (newest, oldest *sample) {
	newest = e.sampleAt(0)
	if newest == nil {
		return nil, nil
	}
	lb := e.cfg.Lookback
	if uint64(lb) >= e.ticks {
		lb = int(e.ticks) - 1
	}
	return newest, e.sampleAt(lb)
}

// Ticks returns the number of samples taken since the last registry
// rebuild.
func (e *Engine) Ticks() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ticks
}

// --- derived documents (cold paths; these allocate freely) ---

// HistQuantiles summarizes one histogram's observations inside the rate
// window: interval percentiles, not lifetime ones.
type HistQuantiles struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Rates is the derived-rate document: per-second counter rates and
// interval histogram percentiles over the lookback window, plus current
// gauge values. Only series that moved inside the window appear.
type Rates struct {
	Node       string                   `json:"node,omitempty"`
	At         time.Time                `json:"at"`
	WindowSec  float64                  `json:"window_sec"`
	Counters   map[string]float64       `json:"counters,omitempty"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]HistQuantiles `json:"histograms,omitempty"`
}

// Rates computes the current derived-rate document.
func (e *Engine) Rates() Rates {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Rates{Node: e.cfg.Node, At: time.Now()}
	newest, oldest := e.lookbackSamples()
	if newest == nil {
		return out
	}
	out.At = time.Unix(0, newest.at)
	sec := float64(newest.at-oldest.at) / 1e9
	out.WindowSec = sec
	out.Gauges = make(map[string]int64, len(e.gaugeNames))
	for i, name := range e.gaugeNames {
		if v := newest.gauges[i]; v != 0 {
			out.Gauges[name] = v
		}
	}
	if sec <= 0 {
		return out
	}
	out.Counters = make(map[string]float64, len(e.counterNames))
	for i, name := range e.counterNames {
		if d := newest.counters[i] - oldest.counters[i]; d > 0 {
			out.Counters[name] = float64(d) / sec
		}
	}
	out.Histograms = make(map[string]HistQuantiles, len(e.histNames))
	for i, name := range e.histNames {
		var count uint64
		for b, c := range newest.histCounts[i] {
			d := c - oldest.histCounts[i][b]
			e.scratch[b] = d
			count += d
		}
		if count == 0 {
			continue
		}
		counts := e.scratch[:len(newest.histCounts[i])]
		bounds := e.hists[i].Bounds()
		out.Histograms[name] = HistQuantiles{
			Count: count,
			Mean:  float64(newest.histSums[i]-oldest.histSums[i]) / float64(count),
			P50:   obs.Quantile(bounds, counts, count, 0.50),
			P90:   obs.Quantile(bounds, counts, count, 0.90),
			P99:   obs.Quantile(bounds, counts, count, 0.99),
		}
	}
	return out
}

// RatesJSON returns the Rates document JSON-encoded (nil on error).
func (e *Engine) RatesJSON() []byte {
	b, err := json.Marshal(e.Rates())
	if err != nil {
		return nil
	}
	return b
}

// Point is one retained sample, rendered for /historyz.
type Point struct {
	At       time.Time         `json:"at"`
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
}

// Dump is the /historyz document: the retained sample ring, oldest
// first, with zero-valued series elided per point.
type Dump struct {
	Node       string  `json:"node,omitempty"`
	IntervalMS int64   `json:"interval_ms"`
	Ticks      uint64  `json:"ticks"`
	Points     []Point `json:"points"`
}

// DumpHistory renders up to maxPoints retained samples, oldest first
// (maxPoints <= 0 means all).
func (e *Engine) DumpHistory(maxPoints int) Dump {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := Dump{
		Node:       e.cfg.Node,
		IntervalMS: e.cfg.Interval.Milliseconds(),
		Ticks:      e.ticks,
	}
	kept := int(e.ticks)
	if kept > len(e.ring) {
		kept = len(e.ring)
	}
	if maxPoints > 0 && kept > maxPoints {
		kept = maxPoints
	}
	for k := kept - 1; k >= 0; k-- {
		s := e.sampleAt(k)
		if s == nil {
			continue
		}
		p := Point{
			At:       time.Unix(0, s.at),
			Counters: make(map[string]uint64),
			Gauges:   make(map[string]int64),
		}
		for i, name := range e.counterNames {
			if v := s.counters[i]; v != 0 {
				p.Counters[name] = v
			}
		}
		for i, name := range e.gaugeNames {
			if v := s.gauges[i]; v != 0 {
				p.Gauges[name] = v
			}
		}
		d.Points = append(d.Points, p)
	}
	return d
}

// ratePrefixLocked returns the per-second rate summed over every counter
// whose name begins with prefix (label blocks included in the match).
func (e *Engine) ratePrefixLocked(newest, oldest *sample, prefix string) float64 {
	sec := float64(newest.at-oldest.at) / 1e9
	if sec <= 0 {
		return 0
	}
	var d uint64
	for i, name := range e.counterNames {
		if strings.HasPrefix(name, prefix) {
			d += newest.counters[i] - oldest.counters[i]
		}
	}
	return float64(d) / sec
}
