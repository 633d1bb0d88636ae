// Package transport provides the RPC layer for live D2 nodes: a request/
// response interface with two implementations — an in-memory network for
// running hundreds or thousands of nodes in one process (the deployment-
// scale tests), and a TCP implementation (pipelined, tag-multiplexed
// streams of hand-rolled binary frames, pooled per peer) for
// multi-process clusters. D2-Store used TCP in the paper's prototype
// (§7).
package transport

import (
	"context"
	"errors"
	"fmt"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
)

// Addr identifies a node endpoint ("mem://n42" or "127.0.0.1:7000").
type Addr string

// Handler processes one request and returns the response. ctx carries the
// caller's trace position (tracing.WithRemote) when the request belongs to
// a sampled trace; it does not carry the caller's cancellation — the
// transports hand every handler a background-derived context, so a
// pipelined handler outlives an impatient caller exactly as it would over
// a real wire.
type Handler func(ctx context.Context, from Addr, req Message) (Message, error)

// Transport sends requests and serves responses.
type Transport interface {
	// Addr returns this endpoint's address.
	Addr() Addr
	// Call sends req to the destination and waits for its response.
	Call(ctx context.Context, to Addr, req Message) (Message, error)
	// Serve installs the request handler. It must be called before the
	// first inbound request and at most once.
	Serve(h Handler)
	// Close releases the endpoint.
	Close() error
}

// Message is a marker for RPC payloads. Every implementation is a
// *pointer* to one of the request/response structs in this package —
// pointers keep interface conversions allocation-free on the hot path —
// and carries a hand-rolled binary marshaler in codec.go (the wire is
// reflection-free; gob is gone from the module).
type Message interface{ isMessage() }

// PeerInfo describes a node: its ring position and address.
type PeerInfo struct {
	ID   keys.Key
	Addr Addr
}

// IsZero reports whether the peer info is unset.
func (p PeerInfo) IsZero() bool { return p.Addr == "" }

// --- request/response types (the node protocol) ---

// PingReq checks liveness and identity.
type PingReq struct{}

// PingResp returns the node's current identity.
type PingResp struct{ Self PeerInfo }

// FindSuccReq asks for routing progress toward Key's owner. The reply
// either names the owner (Done) or the best next hop.
type FindSuccReq struct{ Key keys.Key }

// FindSuccResp carries one routing step's result.
type FindSuccResp struct {
	Done bool
	// Node is the owner when Done, otherwise the next hop.
	Node PeerInfo
	// Pred is the owner's predecessor when Done (the owned range's lower
	// bound, for lookup caches).
	Pred PeerInfo
}

// NeighborsReq fetches a node's predecessor and successor list.
type NeighborsReq struct{}

// NeighborsResp returns ring neighbors.
type NeighborsResp struct {
	Self  PeerInfo
	Pred  PeerInfo
	Succs []PeerInfo
}

// NotifyReq tells a node about a possible predecessor.
type NotifyReq struct{ Cand PeerInfo }

// NotifyResp acknowledges a notify.
type NotifyResp struct{}

// PutReq stores a block replica.
type PutReq struct {
	Key keys.Key
	// Data is the block payload.
	Data []byte
	// Replicate asks the primary to forward to its successors.
	Replicate bool
	// TTL is the block lifetime in seconds (0 = no expiry).
	TTL int64
}

// PutResp acknowledges a put.
type PutResp struct{}

// GetReq fetches a block.
type GetReq struct{ Key keys.Key }

// GetResp returns the block or reports absence. When the node only holds
// a pointer, Redirect names the node storing the data (§6).
type GetResp struct {
	Found    bool
	Data     []byte
	Redirect Addr
}

// RemoveReq deletes a block after DelaySec seconds (§3).
type RemoveReq struct {
	Key       keys.Key
	DelaySec  int64
	Replicate bool
}

// RemoveResp acknowledges a remove.
type RemoveResp struct{}

// LoadReq asks for the node's primary-responsibility load (§6).
type LoadReq struct{}

// LoadResp returns load accounting.
type LoadResp struct {
	Self PeerInfo
	// RespBytes is the primary load used by the balancer.
	RespBytes int64
	// StoredBytes is the node's total stored volume.
	StoredBytes int64
}

// SplitReq asks an overloaded node for the byte-median key of its primary
// range, so the prober can rejoin as its predecessor.
type SplitReq struct{}

// SplitResp returns the split point (Ok=false when the range is empty).
type SplitResp struct {
	Ok     bool
	Median keys.Key
}

// RangeReq pulls the keys (and optionally data) of an arc, for replica
// repair and migration.
type RangeReq struct {
	Lo, Hi keys.Key
	// WithData includes block payloads; otherwise only keys are listed.
	WithData bool
	// WithPointers also lists pointer entries (never their data): a
	// balance mover taking over an arc must learn where pointed-to blocks
	// actually live, or it would take ownership of keys it cannot serve.
	WithPointers bool
	// Limit caps the number of returned blocks (0 = no cap).
	Limit int
}

// RangeItem is one block in a RangeResp.
type RangeItem struct {
	Key keys.Key
	// Size is the block's data size (always set, even without data).
	Size int64
	Data []byte
	// Pointer, when set, names the node actually storing the block (the
	// listed entry is a §6 block pointer, included under WithPointers).
	Pointer Addr
}

// RangeResp returns an arc's blocks.
type RangeResp struct{ Items []RangeItem }

// BatchItem is one block result in a batched read response. Exactly one of
// Data and Redirect is meaningful when Found; a pointer entry reports the
// node actually storing the data (§6).
type BatchItem struct {
	Key      keys.Key
	Found    bool
	Data     []byte
	Redirect Addr
}

// MultiGetReq fetches several blocks from one node in a single RPC. The
// client groups a key run by owner so D2's contiguous file keys cost ~one
// RPC per replica group instead of one per block.
type MultiGetReq struct{ Keys []keys.Key }

// MultiGetResp returns one item per requested key, in request order.
// Build busy-server responses with AcquireMultiGetResp to reuse the Items
// scaffolding across RPCs.
type MultiGetResp struct {
	Items []BatchItem

	// pooled marks a response built by AcquireMultiGetResp; the TCP
	// transport recycles it after the frame is written. Never on the wire.
	pooled bool
}

// MultiPutReq stores several block replicas on one node in a single RPC —
// the write-path counterpart of MultiGetReq. The client groups a batch by
// owner, so a save or a stream batch costs ~one RPC, one WAL append and
// one fsync per replica instead of one of each per block. Keys and Data
// are parallel; the blocks are applied in order.
type MultiPutReq struct {
	Keys []keys.Key
	Data [][]byte
	// Replicate asks the primary to forward the batch to its successors.
	Replicate bool
	// TTL is the blocks' lifetime in seconds (0 = no expiry).
	TTL int64
}

// MultiPutResp acknowledges a MultiPutReq: every block of the batch is
// stored as durably as the node's engine promises. A batch the node could
// not make durable is answered with an ErrResp instead.
type MultiPutResp struct{}

// FetchRangeReq reads every data block a node holds in the arc (Lo, Hi],
// the read-path counterpart of RangeReq: it always ships data and reports
// pointer redirects instead of skipping pointer entries.
type FetchRangeReq struct {
	Lo, Hi keys.Key
	// Limit caps the items per response (0 = server default). When the
	// scan is truncated the response sets More and the caller resumes
	// from the last returned key.
	Limit int
}

// FetchRangeResp returns the arc's blocks in key order. Build busy-server
// responses with AcquireFetchRangeResp to reuse the Items scaffolding
// across RPCs.
type FetchRangeResp struct {
	Items []BatchItem
	// More is set when Limit truncated the scan.
	More bool

	// pooled marks a response built by AcquireFetchRangeResp; the TCP
	// transport recycles it after the frame is written. Never on the wire.
	pooled bool
}

// PutPtrReq installs a block pointer: the receiver becomes responsible
// for Key but the data stays at Target until pointer stabilization (§6).
type PutPtrReq struct {
	Key    keys.Key
	Target Addr
	Size   int64
}

// PutPtrResp acknowledges a pointer install.
type PutPtrResp struct{}

// SampleReq asks for a uniformly random peer from the node's view, used by
// Mercury-style random-walk sampling for balance probes (§6).
type SampleReq struct{ Hops int }

// SampleResp returns the sampled peer.
type SampleResp struct{ Peer PeerInfo }

// TraceFetchReq asks a node for the spans it retains for one trace — the
// scrape RPC behind d2ctl trace's cross-node span assembly. A zero Trace
// asks for the node's recent root spans instead (trace discovery).
type TraceFetchReq struct {
	Trace uint64
	// Limit caps returned spans (0 = server default).
	Limit int
}

// TraceFetchResp returns one node's retained spans for the asked trace
// (or its recent roots), ordered by start time.
type TraceFetchResp struct{ Spans []tracing.Span }

// StatsReq asks a node for its metrics snapshot and load summary — the
// admin plane's scrape RPC, used by d2ctl stats/top to build cluster-wide
// views without an HTTP round trip.
type StatsReq struct{}

// StatsResp carries one node's observability state.
type StatsResp struct {
	Self PeerInfo
	Pred PeerInfo
	// RespBytes is the node's primary-responsibility load (§6) and
	// StoredBytes its total stored volume; reported per node (not merged)
	// so the scraper can compute the §10 load-imbalance metric.
	RespBytes   int64
	StoredBytes int64
	// Blocks is the number of store entries (data and pointers).
	Blocks int64
	// SnapshotJSON is the node's obs.Snapshot, JSON-encoded. Mergeable
	// with other nodes' snapshots via obs.Merge.
	SnapshotJSON []byte
}

// HealthReq asks a node for its health verdict and derived rates — the
// cluster health engine's scrape RPC, used by d2ctl watch/doctor to
// build ring-wide health views without an HTTP round trip.
type HealthReq struct{}

// HealthResp carries one node's health state.
type HealthResp struct {
	Self PeerInfo
	Pred PeerInfo
	// RespBytes/StoredBytes/Blocks mirror StatsResp so the doctor can
	// evaluate §10 load imbalance from the same walk.
	RespBytes   int64
	StoredBytes int64
	Blocks      int64
	// State is the overall verdict ("ok", "degraded", "failing", or
	// "unknown" for nodes without a health engine).
	State string
	// StatusJSON is the node's history.Status document and RatesJSON its
	// history.Rates document, both JSON-encoded; nil without an engine.
	StatusJSON []byte
	RatesJSON  []byte
}

// CensusReq asks a node for its placement census — per-role block
// tallies and per-volume run-length stats from its background sweeper.
// d2ctl frag/map aggregate the reports over WalkRing into the §5
// cluster locality metrics.
type CensusReq struct{}

// CensusResp carries one node's placement census.
type CensusResp struct {
	Self PeerInfo
	Pred PeerInfo
	// RespBytes/StoredBytes/Blocks mirror StatsResp so the census walk
	// can compute §10 load imbalance without a second scrape.
	RespBytes   int64
	StoredBytes int64
	Blocks      int64
	// ReportJSON is the node's census.Report, JSON-encoded; nil on
	// nodes without a census sweeper.
	ReportJSON []byte
}

// ErrResp carries an application-level error back to the caller.
type ErrResp struct{ Err string }

func (*PingReq) isMessage()        {}
func (*PingResp) isMessage()       {}
func (*FindSuccReq) isMessage()    {}
func (*FindSuccResp) isMessage()   {}
func (*NeighborsReq) isMessage()   {}
func (*NeighborsResp) isMessage()  {}
func (*NotifyReq) isMessage()      {}
func (*NotifyResp) isMessage()     {}
func (*PutReq) isMessage()         {}
func (*PutResp) isMessage()        {}
func (*GetReq) isMessage()         {}
func (*GetResp) isMessage()        {}
func (*RemoveReq) isMessage()      {}
func (*RemoveResp) isMessage()     {}
func (*LoadReq) isMessage()        {}
func (*LoadResp) isMessage()       {}
func (*SplitReq) isMessage()       {}
func (*SplitResp) isMessage()      {}
func (*RangeReq) isMessage()       {}
func (*RangeResp) isMessage()      {}
func (*MultiGetReq) isMessage()    {}
func (*MultiGetResp) isMessage()   {}
func (*MultiPutReq) isMessage()    {}
func (*MultiPutResp) isMessage()   {}
func (*FetchRangeReq) isMessage()  {}
func (*FetchRangeResp) isMessage() {}
func (*PutPtrReq) isMessage()      {}
func (*PutPtrResp) isMessage()     {}
func (*SampleReq) isMessage()      {}
func (*SampleResp) isMessage()     {}
func (*StatsReq) isMessage()       {}
func (*StatsResp) isMessage()      {}
func (*TraceFetchReq) isMessage()  {}
func (*TraceFetchResp) isMessage() {}
func (*ErrResp) isMessage()        {}
func (*HealthReq) isMessage()      {}
func (*HealthResp) isMessage()     {}
func (*CensusReq) isMessage()      {}
func (*CensusResp) isMessage()     {}

// AsError converts an ErrResp into a Go error, passing other messages
// through.
func AsError(m Message) (Message, error) {
	if e, ok := m.(*ErrResp); ok {
		return nil, errors.New(e.Err)
	}
	return m, nil
}

// ToErrResp wraps a handler error for the wire.
func ToErrResp(err error) Message { return &ErrResp{Err: err.Error()} }

// ErrClosed reports an operation on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrUnreachable reports an unknown or dead destination.
var ErrUnreachable = errors.New("transport: unreachable")

// wrongType builds the error for an unexpected response message.
func wrongType(m Message) error {
	return fmt.Errorf("transport: unexpected response type %T", m)
}

// Expect asserts the concrete response type, collapsing the usual
// call-and-assert boilerplate at call sites.
func Expect[T Message](m Message, err error) (T, error) {
	var zero T
	if err != nil {
		return zero, err
	}
	m, err = AsError(m)
	if err != nil {
		return zero, err
	}
	v, ok := m.(T)
	if !ok {
		return zero, wrongType(m)
	}
	return v, nil
}
