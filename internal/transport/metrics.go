package transport

import (
	"context"
	"errors"
	"time"

	"github.com/defragdht/d2/internal/obs"
)

// rpcNames names each wire type for metric labels and span names. A
// response shares its request's name, so a call's request and reply count
// under one label; ErrResp and the unset slot are "other".
var rpcNames = [numWireTypes]string{
	tInvalid: "other", tErrResp: "other",
	tPingReq: "ping", tPingResp: "ping",
	tFindSuccReq: "find_succ", tFindSuccResp: "find_succ",
	tNeighborsReq: "neighbors", tNeighborsResp: "neighbors",
	tNotifyReq: "notify", tNotifyResp: "notify",
	tPutReq: "put", tPutResp: "put",
	tGetReq: "get", tGetResp: "get",
	tRemoveReq: "remove", tRemoveResp: "remove",
	tLoadReq: "load", tLoadResp: "load",
	tSplitReq: "split", tSplitResp: "split",
	tRangeReq: "range", tRangeResp: "range",
	tMultiGetReq: "multi_get", tMultiGetResp: "multi_get",
	tFetchRangeReq: "fetch_range", tFetchRangeResp: "fetch_range",
	tPutPtrReq: "put_ptr", tPutPtrResp: "put_ptr",
	tSampleReq: "sample", tSampleResp: "sample",
	tStatsReq: "stats", tStatsResp: "stats",
	tTraceFetchReq: "trace_fetch", tTraceFetchResp: "trace_fetch",
	tHealthReq: "health", tHealthResp: "health",
	tCensusReq: "census", tCensusResp: "census",
	tMultiPutReq: "multi_put", tMultiPutResp: "multi_put",
}

// payloadBytes returns the block-data bytes a message carries — the
// transport-independent "useful bytes" measure shared by the mem and TCP
// transports (the TCP transport additionally counts real wire bytes).
func payloadBytes(m Message) int64 {
	switch v := m.(type) {
	case *PutReq:
		return int64(len(v.Data))
	case *MultiPutReq:
		var n int64
		for _, d := range v.Data {
			n += int64(len(d))
		}
		return n
	case *GetResp:
		return int64(len(v.Data))
	case *MultiGetResp:
		var n int64
		for i := range v.Items {
			n += int64(len(v.Items[i].Data))
		}
		return n
	case *FetchRangeResp:
		var n int64
		for i := range v.Items {
			n += int64(len(v.Items[i].Data))
		}
		return n
	case *RangeResp:
		var n int64
		for i := range v.Items {
			n += int64(len(v.Items[i].Data))
		}
		return n
	case *StatsResp:
		return int64(len(v.SnapshotJSON))
	case *HealthResp:
		return int64(len(v.StatusJSON) + len(v.RatesJSON))
	case *CensusResp:
		return int64(len(v.ReportJSON))
	default:
		return 0
	}
}

// RPCMetrics instruments one transport endpoint against an obs.Registry:
// per-RPC-type call counts, error counts, and latency histograms on the
// client side; served counts and a pipelining-depth gauge on the server
// side; payload byte counters both ways; and dial/retry/timeout counters
// for the TCP path. All methods are safe on a nil receiver (metrics off),
// so the transports carry a single pointer and no conditional wiring.
type RPCMetrics struct {
	// Indexed by wire type; a request and its response share the entries
	// registered under their name.
	calls   [numWireTypes]*obs.Counter
	errs    [numWireTypes]*obs.Counter
	latency [numWireTypes]*obs.Histogram
	served  [numWireTypes]*obs.Counter

	bytesSent *obs.Counter
	bytesRecv *obs.Counter

	inflight *obs.Gauge     // concurrent inbound handlers (pipelining depth)
	depth    *obs.Histogram // observed depth at each inbound request

	dials    *obs.Counter
	retries  *obs.Counter
	timeouts *obs.Counter
	wireIn   *obs.Counter
	wireOut  *obs.Counter

	poolConns *obs.Gauge   // live pooled connections across peers
	evictions *obs.Counter // idle connections closed by the janitor
	failfast  *obs.Counter // calls refused during a peer's backoff window
}

// NewRPCMetrics registers the transport metrics on reg.
func NewRPCMetrics(reg *obs.Registry) *RPCMetrics {
	m := &RPCMetrics{
		bytesSent: reg.Counter(`d2_rpc_payload_bytes_total{dir="sent"}`),
		bytesRecv: reg.Counter(`d2_rpc_payload_bytes_total{dir="recv"}`),
		inflight:  reg.Gauge("d2_rpc_server_inflight"),
		depth:     reg.Histogram("d2_rpc_server_pipeline_depth", obs.CountBuckets),
		dials:     reg.Counter("d2_tcp_dials_total"),
		retries:   reg.Counter("d2_tcp_retries_total"),
		timeouts:  reg.Counter("d2_rpc_timeouts_total"),
		wireIn:    reg.Counter(`d2_tcp_wire_bytes_total{dir="read"}`),
		wireOut:   reg.Counter(`d2_tcp_wire_bytes_total{dir="written"}`),
		poolConns: reg.Gauge("d2_tcp_pool_conns"),
		evictions: reg.Counter("d2_tcp_pool_evictions_total"),
		failfast:  reg.Counter("d2_tcp_pool_failfast_total"),
	}
	for t, name := range rpcNames {
		label := `{rpc="` + name + `"}`
		m.calls[t] = reg.Counter("d2_rpc_client_total" + label)
		m.errs[t] = reg.Counter("d2_rpc_client_errors_total" + label)
		m.latency[t] = reg.Histogram("d2_rpc_client_latency_ns"+label, obs.LatencyBuckets)
		m.served[t] = reg.Counter("d2_rpc_server_total" + label)
	}
	return m
}

// startCall records an outbound request and returns its wire type and
// start time for finishCall.
func (m *RPCMetrics) startCall(req Message) (byte, time.Time) {
	if m == nil {
		return tInvalid, time.Time{}
	}
	k := req.wireType()
	m.calls[k].Inc()
	if n := payloadBytes(req); n > 0 {
		m.bytesSent.Add(uint64(n))
	}
	return k, time.Now()
}

// finishCall records an outbound call's outcome.
func (m *RPCMetrics) finishCall(k byte, start time.Time, resp Message, err error) {
	if m == nil {
		return
	}
	m.latency[k].Observe(int64(time.Since(start)))
	if err != nil {
		m.errs[k].Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			m.timeouts.Inc()
		}
		return
	}
	if n := payloadBytes(resp); n > 0 {
		m.bytesRecv.Add(uint64(n))
	}
}

// serveStart records one inbound request beginning service (pair with
// serveEnd). It reports the pipelining depth observed at arrival (how
// many handlers were already running, plus this one).
func (m *RPCMetrics) serveStart(req Message) {
	if m == nil {
		return
	}
	m.served[req.wireType()].Inc()
	m.depth.Observe(m.inflight.Value() + 1)
	m.inflight.Add(1)
}

// serveEnd records one inbound request finishing service.
func (m *RPCMetrics) serveEnd() {
	if m != nil {
		m.inflight.Add(-1)
	}
}

// dialed counts one TCP dial attempt.
func (m *RPCMetrics) dialed() {
	if m != nil {
		m.dials.Inc()
	}
}

// retried counts one TCP call retry after a dead connection.
func (m *RPCMetrics) retried() {
	if m != nil {
		m.retries.Inc()
	}
}

// wireRead / wireWritten count raw TCP bytes. The framing layer reports
// whole frames (a conn wrapper would defeat writev vectoring).
func (m *RPCMetrics) wireRead(n int) {
	if m != nil && n > 0 {
		m.wireIn.Add(uint64(n))
	}
}

func (m *RPCMetrics) wireWritten(n int) {
	if m != nil && n > 0 {
		m.wireOut.Add(uint64(n))
	}
}

// connAdded / connRemoved track the pooled-connection gauge.
func (m *RPCMetrics) connAdded() {
	if m != nil {
		m.poolConns.Add(1)
	}
}

func (m *RPCMetrics) connRemoved() {
	if m != nil {
		m.poolConns.Add(-1)
	}
}

// evicted counts one idle connection closed by the pool janitor.
func (m *RPCMetrics) evicted() {
	if m != nil {
		m.evictions.Inc()
	}
}

// failedFast counts one call refused during a peer's dial-backoff window.
func (m *RPCMetrics) failedFast() {
	if m != nil {
		m.failfast.Inc()
	}
}
