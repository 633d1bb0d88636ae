package transport

import (
	"context"
	"errors"
	"time"

	"github.com/defragdht/d2/internal/obs"
)

// rpcKind indexes the per-RPC-type metric arrays. Kinds are derived from
// the request message type; responses are attributed to their request's
// kind.
type rpcKind int

const (
	kindPing rpcKind = iota
	kindFindSucc
	kindNeighbors
	kindNotify
	kindPut
	kindGet
	kindMultiGet
	kindFetchRange
	kindRemove
	kindLoad
	kindSplit
	kindRange
	kindPutPtr
	kindSample
	kindStats
	kindTraceFetch
	kindHealth
	kindCensus
	kindMultiPut
	kindOther
	numKinds
)

var kindNames = [numKinds]string{
	"ping", "find_succ", "neighbors", "notify", "put", "get",
	"multi_get", "fetch_range", "remove", "load", "split", "range",
	"put_ptr", "sample", "stats", "trace_fetch", "health", "census",
	"multi_put", "other",
}

// kindOf classifies a request message.
func kindOf(m Message) rpcKind {
	switch m.(type) {
	case *PingReq:
		return kindPing
	case *FindSuccReq:
		return kindFindSucc
	case *NeighborsReq:
		return kindNeighbors
	case *NotifyReq:
		return kindNotify
	case *PutReq:
		return kindPut
	case *GetReq:
		return kindGet
	case *MultiGetReq:
		return kindMultiGet
	case *FetchRangeReq:
		return kindFetchRange
	case *RemoveReq:
		return kindRemove
	case *LoadReq:
		return kindLoad
	case *SplitReq:
		return kindSplit
	case *RangeReq:
		return kindRange
	case *PutPtrReq:
		return kindPutPtr
	case *SampleReq:
		return kindSample
	case *StatsReq:
		return kindStats
	case *TraceFetchReq:
		return kindTraceFetch
	case *HealthReq:
		return kindHealth
	case *CensusReq:
		return kindCensus
	case *MultiPutReq:
		return kindMultiPut
	default:
		return kindOther
	}
}

// wireKinds maps a wire type byte to its rpcKind (responses count under
// their request's kind), for metric attribution without a type switch on
// the decode path.
var wireKinds = [numWireTypes]rpcKind{
	tPingReq: kindPing, tPingResp: kindPing,
	tFindSuccReq: kindFindSucc, tFindSuccResp: kindFindSucc,
	tNeighborsReq: kindNeighbors, tNeighborsResp: kindNeighbors,
	tNotifyReq: kindNotify, tNotifyResp: kindNotify,
	tPutReq: kindPut, tPutResp: kindPut,
	tGetReq: kindGet, tGetResp: kindGet,
	tRemoveReq: kindRemove, tRemoveResp: kindRemove,
	tLoadReq: kindLoad, tLoadResp: kindLoad,
	tSplitReq: kindSplit, tSplitResp: kindSplit,
	tRangeReq: kindRange, tRangeResp: kindRange,
	tMultiGetReq: kindMultiGet, tMultiGetResp: kindMultiGet,
	tFetchRangeReq: kindFetchRange, tFetchRangeResp: kindFetchRange,
	tPutPtrReq: kindPutPtr, tPutPtrResp: kindPutPtr,
	tSampleReq: kindSample, tSampleResp: kindSample,
	tStatsReq: kindStats, tStatsResp: kindStats,
	tTraceFetchReq: kindTraceFetch, tTraceFetchResp: kindTraceFetch,
	tHealthReq: kindHealth, tHealthResp: kindHealth,
	tCensusReq: kindCensus, tCensusResp: kindCensus,
	tMultiPutReq: kindMultiPut, tMultiPutResp: kindMultiPut,
	tErrResp: kindOther,
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
	calls   [numKinds]*obs.Counter
	errs    [numKinds]*obs.Counter
	latency [numKinds]*obs.Histogram
	served  [numKinds]*obs.Counter

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
	for k := rpcKind(0); k < numKinds; k++ {
		label := `{rpc="` + kindNames[k] + `"}`
		m.calls[k] = reg.Counter("d2_rpc_client_total" + label)
		m.errs[k] = reg.Counter("d2_rpc_client_errors_total" + label)
		m.latency[k] = reg.Histogram("d2_rpc_client_latency_ns"+label, obs.LatencyBuckets)
		m.served[k] = reg.Counter("d2_rpc_server_total" + label)
	}
	return m
}

// startCall records an outbound request and returns its kind and start
// time for finishCall.
func (m *RPCMetrics) startCall(req Message) (rpcKind, time.Time) {
	if m == nil {
		return kindOther, time.Time{}
	}
	k := kindOf(req)
	m.calls[k].Inc()
	if n := payloadBytes(req); n > 0 {
		m.bytesSent.Add(uint64(n))
	}
	return k, time.Now()
}

// finishCall records an outbound call's outcome.
func (m *RPCMetrics) finishCall(k rpcKind, start time.Time, resp Message, err error) {
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
	m.served[kindOf(req)].Inc()
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
