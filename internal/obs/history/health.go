package history

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/defragdht/d2/internal/obs/census"
)

// State is a health verdict, ordered by severity.
type State uint8

const (
	StateOK State = iota
	StateDegraded
	StateFailing
)

var stateNames = [...]string{"ok", "degraded", "failing"}

// String returns "ok", "degraded", or "failing" (static strings; no
// allocation).
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Check is one threshold health check. Value reads the current sample
// window through the View's allocation-free accessors; the check
// degrades at Value >= Warn and fails at Value >= Fail.
type Check struct {
	// Name identifies the check in status documents ("replica_deficit").
	Name string
	// Describe explains what the value measures, for evidence strings.
	Describe string
	// Value computes the checked quantity from the sample window.
	Value func(v *View) float64
	// Warn and Fail are the ascending thresholds (Warn <= Fail). Use
	// math.Inf(1) for a check that can degrade but never fail.
	Warn, Fail float64
}

// CheckResult is one check's numeric outcome — static name, enum state,
// floats. Evidence strings render only when a status document is built.
type CheckResult struct {
	Name  string
	State State
	Value float64
	Warn  float64
	Fail  float64
}

// View gives checks windowed access to the sample ring: the newest
// sample against the one Lookback ticks older. Every accessor is
// allocation-free and returns 0 for series the registry doesn't carry,
// so one default check set works across nodes, clients, and simulators.
type View struct {
	e      *Engine
	newest *sample
	oldest *sample
}

// Seconds returns the window's wall-clock span.
func (v *View) Seconds() float64 {
	if v.newest == nil || v.newest == v.oldest {
		return 0
	}
	return float64(v.newest.at-v.oldest.at) / 1e9
}

// Gauge returns the named gauge's newest sampled value.
func (v *View) Gauge(name string) float64 {
	if v.newest == nil {
		return 0
	}
	i, ok := v.e.gaugeIdx[name]
	if !ok {
		return 0
	}
	return float64(v.newest.gauges[i])
}

// CounterDelta returns the named counter's increase across the window.
func (v *View) CounterDelta(name string) float64 {
	if v.newest == nil || v.newest == v.oldest {
		return 0
	}
	i, ok := v.e.counterIdx[name]
	if !ok {
		return 0
	}
	return float64(v.newest.counters[i] - v.oldest.counters[i])
}

// Rate returns the named counter's per-second rate across the window.
func (v *View) Rate(name string) float64 {
	sec := v.Seconds()
	if sec <= 0 {
		return 0
	}
	return v.CounterDelta(name) / sec
}

// RatePrefix returns the per-second rate summed over all counters whose
// name starts with prefix (covering labeled families like
// d2_rpc_client_errors_total{rpc="..."}).
func (v *View) RatePrefix(prefix string) float64 {
	if v.newest == nil || v.newest == v.oldest {
		return 0
	}
	return v.e.ratePrefixLocked(v.newest, v.oldest, prefix)
}

// Ratio returns delta(num)/delta(den) across the window (0 when the
// denominator didn't move) — stall fractions, error fractions.
func (v *View) Ratio(num, den string) float64 {
	d := v.CounterDelta(den)
	if d <= 0 {
		return 0
	}
	return v.CounterDelta(num) / d
}

// DeltaMean returns the mean of the named histogram's observations
// inside the window.
func (v *View) DeltaMean(name string) float64 {
	if v.newest == nil || v.newest == v.oldest {
		return 0
	}
	i, ok := v.e.histIdx[name]
	if !ok {
		return 0
	}
	var n uint64
	for b, c := range v.newest.histCounts[i] {
		n += c - v.oldest.histCounts[i][b]
	}
	if n == 0 {
		return 0
	}
	return float64(v.newest.histSums[i]-v.oldest.histSums[i]) / float64(n)
}

// DefaultChecks returns the node health check set:
//
//   - replica_deficit: block replicas the last repair round could not
//     place (missing successors or failed pushes) — churn has outrun
//     replication.
//   - pool_failfast: rate of calls refused by a peer pool's dial-backoff
//     window — a peer is down or flapping.
//   - lookup_hops: mean hops per lookup inside the window — routing
//     inflation from stale successor lists or partitions.
//   - stream_stalls: fraction of stream segments that stalled the
//     consumer — the readahead window can't keep up.
//   - events_dropped: event-log ring overwrites per second — the
//     diagnostic window is being lost while something is wrong.
//   - rpc_errors: client-side RPC errors per second across all kinds.
//   - wal_stall: durable-store commits per second that waited longer
//     than the stall threshold for their group fsync — the device can't
//     keep up with the write load (0 on in-memory nodes, which never
//     carry the series).
//   - fragmentation: the placement census's runs-per-file ratio — the
//     paper's defrag invariant measured live (0 on nodes without a
//     census sweeper, which never carry the series).
//
// §10 load imbalance is a cluster-level property and is evaluated by
// BuildClusterReport over per-node loads, not here.
func DefaultChecks() []Check {
	return []Check{
		{
			Name:     "replica_deficit",
			Describe: "block replicas missing after the last repair round",
			Value:    func(v *View) float64 { return v.Gauge("d2_node_replica_deficit") },
			Warn:     1,
			Fail:     64,
		},
		{
			Name:     "pool_failfast",
			Describe: "calls refused during peer dial backoff, per second",
			Value:    func(v *View) float64 { return v.Rate("d2_tcp_pool_failfast_total") },
			Warn:     0.2,
			Fail:     20,
		},
		{
			Name:     "lookup_hops",
			Describe: "mean hops per lookup in the window",
			Value:    func(v *View) float64 { return v.DeltaMean("d2_node_lookup_hops") },
			Warn:     8,
			Fail:     32,
		},
		{
			Name:     "stream_stalls",
			Describe: "fraction of stream segments that stalled",
			Value:    func(v *View) float64 { return v.Ratio("d2_stream_stalls_total", "d2_stream_segments_total") },
			Warn:     0.25,
			Fail:     0.75,
		},
		{
			Name:     "events_dropped",
			Describe: "event-log entries overwritten unread, per second",
			Value:    func(v *View) float64 { return v.Rate("d2_events_dropped_total") },
			Warn:     1,
			Fail:     200,
		},
		{
			Name:     "rpc_errors",
			Describe: "client-side RPC errors per second, all kinds",
			Value:    func(v *View) float64 { return v.RatePrefix("d2_rpc_client_errors_total") },
			Warn:     2,
			Fail:     100,
		},
		{
			Name:     "wal_stall",
			Describe: "durable-store commits stalled on their group fsync, per second",
			Value:    func(v *View) float64 { return v.Rate("d2_store_wal_stalls_total") },
			Warn:     1,
			Fail:     50,
		},
		{
			Name:     "fragmentation",
			Describe: "placement-census runs per file (1.0 = fully defragmented)",
			Value:    func(v *View) float64 { return v.Gauge("d2_census_frag_ratio_milli") / 1000 },
			Warn:     census.FragWarn,
			Fail:     census.FragFail,
		},
	}
}

// evaluateLocked recomputes every check against the current window and
// returns whether the overall state changed (plus the edge). Called with
// e.mu held; allocation-free in the steady state.
func (e *Engine) evaluateLocked() (transition bool, from, to State) {
	e.view.newest, e.view.oldest = e.lookbackSamples()
	overall := StateOK
	for i := range e.cfg.Checks {
		c := &e.cfg.Checks[i]
		val := c.Value(&e.view)
		st := StateOK
		switch {
		case val >= c.Fail:
			st = StateFailing
		case val >= c.Warn:
			st = StateDegraded
		}
		e.results[i] = CheckResult{Name: c.Name, State: st, Value: val, Warn: c.Warn, Fail: c.Fail}
		if st > overall {
			overall = st
		}
	}
	if overall != e.state {
		from, to = e.state, overall
		e.state = overall
		return true, from, to
	}
	return false, e.state, e.state
}

// State returns the current overall health state.
func (e *Engine) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// CheckStatus is one check in a rendered status document.
type CheckStatus struct {
	Name     string  `json:"name"`
	State    string  `json:"state"`
	Value    float64 `json:"value"`
	Warn     float64 `json:"warn"`
	Fail     float64 `json:"fail,omitempty"`
	Evidence string  `json:"evidence,omitempty"`
}

// Status is the /healthz document: the overall verdict with per-check
// evidence.
type Status struct {
	Node       string        `json:"node,omitempty"`
	State      string        `json:"state"`
	At         time.Time     `json:"at"`
	Ticks      uint64        `json:"ticks"`
	IntervalMS int64         `json:"interval_ms"`
	WindowSec  float64       `json:"window_sec"`
	Checks     []CheckStatus `json:"checks"`
}

// Status renders the current health state with per-check evidence (cold
// path; allocates).
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		Node:       e.cfg.Node,
		State:      e.state.String(),
		At:         time.Now(),
		Ticks:      e.ticks,
		IntervalMS: e.cfg.Interval.Milliseconds(),
	}
	if newest, oldest := e.lookbackSamples(); newest != nil && newest != oldest {
		st.WindowSec = float64(newest.at-oldest.at) / 1e9
	}
	for i, r := range e.results {
		cs := CheckStatus{
			Name:  r.Name,
			State: r.State.String(),
			Value: r.Value,
			Warn:  r.Warn,
			Fail:  r.Fail,
		}
		if math.IsInf(r.Fail, 1) {
			cs.Fail = 0
		}
		describe := ""
		if i < len(e.cfg.Checks) {
			describe = e.cfg.Checks[i].Describe
		}
		cs.Evidence = fmt.Sprintf("%s: %.4g (warn >= %.4g, fail >= %.4g) over %.0fs",
			describe, r.Value, r.Warn, r.Fail, st.WindowSec)
		st.Checks = append(st.Checks, cs)
	}
	return st
}

// StatusJSON returns the Status document JSON-encoded (nil on error).
func (e *Engine) StatusJSON() []byte {
	b, err := json.Marshal(e.Status())
	if err != nil {
		return nil
	}
	return b
}
