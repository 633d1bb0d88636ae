package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
)

// Bundle is one flight-recorder dump: a self-contained diagnostic
// document capturing what the node knew at the moment of a trigger —
// the health verdict, the derived rates over the lookback window, the
// retained event log, and (when the trigger carried a trace ID) every
// retained span of the triggering request.
type Bundle struct {
	Node    string         `json:"node,omitempty"`
	Trigger string         `json:"trigger"`
	Reason  string         `json:"reason,omitempty"`
	Trace   string         `json:"trace,omitempty"`
	At      time.Time      `json:"at"`
	Health  Status         `json:"health"`
	Rates   Rates          `json:"rates"`
	Events  []obs.Event    `json:"events,omitempty"`
	Spans   []tracing.Span `json:"spans,omitempty"`
}

// Trigger asks the flight recorder to dump a diagnostic bundle. trigger
// names the cause ("health_transition", "slow_request", "peer_dead"),
// reason is free-form evidence, and trace, when nonzero, selects the
// triggering request's spans for inclusion. Dumps are rate-limited to
// one per FlightMinGap and written asynchronously, so callers on hot
// paths (event hooks, the sampling tick) return immediately. No-op when
// FlightDir is unset.
func (e *Engine) Trigger(trigger, reason string, trace uint64) {
	if e.cfg.FlightDir == "" {
		return
	}
	e.flightMu.Lock()
	now := time.Now()
	if !e.lastFlight.IsZero() && now.Sub(e.lastFlight) < e.cfg.FlightMinGap {
		e.flightMu.Unlock()
		return
	}
	e.lastFlight = now
	e.flightSeq++
	seq := e.flightSeq
	e.flightMu.Unlock()

	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.dumpBundle(now, seq, trigger, reason, trace)
	}()
}

// dumpBundle assembles and writes one bundle file,
// flight-<unixms>-<seq>-<trigger>.json in FlightDir. A failure is counted
// in d2_flight_dump_errors_total and logged as flight.dump_error, never
// returned: the flight recorder must never take the node down.
func (e *Engine) dumpBundle(now time.Time, seq int, trigger, reason string, trace uint64) {
	// Take a fresh sample first so the bundle's rates and health reflect
	// the triggering moment, not the last scheduled tick.
	e.Tick(time.Now())

	b := Bundle{
		Node:    e.cfg.Node,
		Trigger: trigger,
		Reason:  reason,
		At:      now,
		Health:  e.Status(),
		Rates:   e.Rates(),
		Events:  e.cfg.Events.Events(),
	}
	if trace != 0 {
		b.Trace = tracing.TraceIDString(trace)
		if e.cfg.Sink != nil {
			b.Spans = e.cfg.Sink.Trace(trace)
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err == nil {
		err = os.MkdirAll(e.cfg.FlightDir, 0o755)
	}
	if err == nil {
		name := fmt.Sprintf("flight-%d-%03d-%s.json", now.UnixMilli(), seq, trigger)
		err = os.WriteFile(filepath.Join(e.cfg.FlightDir, name), data, 0o644)
	}
	if err != nil {
		e.dumpErrors.Inc()
		e.cfg.Events.Log(obs.LevelWarn, "flight.dump_error", "trigger", trigger, "err", err.Error())
	}
}
