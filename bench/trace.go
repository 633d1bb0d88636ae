package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defragdht/d2/internal/fs"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// The traced run measures every layer from outside: nothing inside the
// repo's packages is touched. Four wrappers sit on the interfaces the
// layers already meet at — fs.BlockService under fs.Volume,
// transport.Transport under node.Client and node.Start, the
// transport.Handler handed to Serve, and store.Engine under node.Start —
// and record one span per crossing into a pre-allocated slice that is
// only read after the run ends.

// layer names a boundary; the names are the repo's packages.
type layer uint8

const (
	layOp     layer = iota // one harness operation (task, stream, save, …)
	layFS                  // a call into fs.Volume
	layClient              // a call into node.Client through fs.BlockService
	layCall                // transport.Transport.Call, by a client or a node
	layServe               // the transport.Handler a node serves
	layStore               // store.Engine
	numLayers
)

var layerNames = [numLayers]string{"op", "fs", "node.client", "transport", "node.serve", "store"}

// Operation codes within a layer.
const (
	// layOp
	opTask uint8 = iota
	opStream
	opSave
	opBulk
	opRead
	opWrite
	opVerify // the harness generating or checksumming bytes inside an fs call
	// layFS
	fsOpen
	fsMkdir
	fsReadDir
	fsReadFile
	fsReadStream
	fsWriteFile
	fsWriteStream
	fsSync
	// layClient
	clPut
	clGet
	clRemove
	clGetMany
	clGetSegment
	// layStore
	stPut
	stPutPointer
	stGet
	stGetBatch
	stDelete
	stRefresh
	stSweepExpired
	stArc
	stArcLimit
	stArcBytes
	stArcVisit
	stMedianKey
	stStalePointers
	stKeys
	stFlush
	// layCall / layServe: RPC kinds
	rpcPut
	rpcGet
	rpcMultiGet
	rpcFetchRange
	rpcRemove
	rpcFindSucc
	rpcNeighbors
	rpcNotify
	rpcPing
	rpcRange
	rpcScrape // Stats, Health, Census, TraceFetch
	rpcOther
	numOps
)

var opNames = [numOps]string{
	"task", "stream", "save", "bulk", "read", "write", "verify",
	"Open", "Mkdir", "ReadDir", "ReadFile", "ReadStream", "WriteFile", "WriteStream", "Sync",
	"Put", "Get", "Remove", "GetMany", "GetSegment",
	"Put", "PutPointer", "Get", "GetBatch", "Delete", "Refresh", "SweepExpired",
	"Arc", "ArcLimit", "ArcBytes", "ArcVisit", "MedianKey", "StalePointers", "Keys", "Flush",
	"PutReq", "GetReq", "MultiGetReq", "FetchRangeReq", "RemoveReq", "FindSuccReq",
	"NeighborsReq", "NotifyReq", "PingReq", "RangeReq", "Scrape", "Other",
}

// Span flags.
const (
	flagErr        uint8 = 1 << iota // the call returned an error
	flagBulk                         // payload over bulkThreshold
	flagFromClient                   // layServe: the caller is a load client, not a ring member
)

// bulkThreshold splits RPCs into the small-message and bulk classes the
// wire-time table reports separately.
const bulkThreshold = 16 << 10

// span is one recorded crossing. IDs are slice positions plus one, so a
// span is written exactly once, by the goroutine that opened it.
type span struct {
	start, end   int64  // ns since the recorder's base
	parent, root uint32 // 0 = none known (server side, background work)
	bytes        uint32 // payload bytes carried
	layer        layer
	op           uint8
	node         uint8 // 0 = load generator, i+1 = ring member i
	flags        uint8
}

// recorder holds the spans of one traced run.
type recorder struct {
	base    time.Time
	on      atomic.Bool
	next    atomic.Uint32
	dropped atomic.Uint64
	spans   []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// open is a span in flight: the slot it will fill and the fields known at
// entry.
type open struct {
	r  *recorder
	id uint32
	s  span
}

type spanKey struct{}

// spanRef is what travels in a context: the innermost open span and the
// harness operation it belongs to.
type spanRef struct{ id, root uint32 }

func refFrom(ctx context.Context) spanRef {
	if ref, ok := ctx.Value(spanKey{}).(*spanRef); ok {
		return *ref
	}
	return spanRef{}
}

// start opens a span under whatever span ctx carries and returns a ctx
// carrying the new one. With the recorder off (or nil, as in every
// untraced run) it returns ctx unchanged and a no-op handle.
func (r *recorder) start(ctx context.Context, l layer, op uint8, node uint8) (context.Context, open) {
	if r == nil || !r.on.Load() {
		return ctx, open{}
	}
	id := r.next.Add(1)
	if int(id) > len(r.spans) {
		r.dropped.Add(1)
		return ctx, open{}
	}
	parent := refFrom(ctx)
	root := parent.root
	if l == layOp && parent.id == 0 {
		root = id
	}
	o := open{r: r, id: id, s: span{
		start: r.now(), parent: parent.id, root: root, layer: l, op: op, node: node,
	}}
	return context.WithValue(ctx, spanKey{}, &spanRef{id: id, root: root}), o
}

// startLeaf opens a span that has no context to hand on (store.Engine
// methods take none).
func (r *recorder) startLeaf(l layer, op uint8, node uint8) open {
	if r == nil || !r.on.Load() {
		return open{}
	}
	id := r.next.Add(1)
	if int(id) > len(r.spans) {
		r.dropped.Add(1)
		return open{}
	}
	return open{r: r, id: id, s: span{start: r.now(), layer: l, op: op, node: node}}
}

func (o *open) end(err error) {
	if o.id == 0 {
		return
	}
	if err != nil {
		o.s.flags |= flagErr
	}
	if o.s.bytes > bulkThreshold {
		o.s.flags |= flagBulk
	}
	o.s.end = o.r.now()
	o.r.spans[o.id-1] = o.s
}

// recorded returns every span slot handed out, in ID order (ID = index
// + 1). A slot whose end never ran — a call still in flight when the ring
// closed — has end 0; readers skip it. Call only after every goroutine
// that could hold an open span has stopped.
func (r *recorder) recorded() []span {
	n := int(r.next.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// writeChromeTrace dumps the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one process per ring member, one track
// per layer. It streams event by event rather than going through
// tracing.WriteChromeTrace, which builds every event (and a map each) in
// memory first: a walk-small run records over a million spans.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	first := true
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		ev := event{
			Name: opNames[s.op], Cat: layerNames[s.layer], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: int(s.node), Tid: int(s.layer),
			Args: map[string]any{"id": i + 1, "parent": s.parent, "op_id": s.root, "bytes": s.bytes},
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// --- fs.BlockService wrapper (the node.client layer) ---

// tracedSvc wraps the block service a volume runs on. It implements the
// batch and segment extensions too, so the volume keeps every fast path
// it has on the bare client.
type tracedSvc struct {
	inner fs.SegmentBlockService
	rec   *recorder

	// sample keeps the first keySampleCap keys the volume asked for while
	// the recorder was on: the key stream the lookup-cache driver replays.
	mu     sync.Mutex
	sample []keys.Key
}

const keySampleCap = 1 << 16

func (t *tracedSvc) note(ks ...keys.Key) {
	if !t.rec.on.Load() {
		return
	}
	t.mu.Lock()
	if room := keySampleCap - len(t.sample); room > 0 {
		t.sample = append(t.sample, ks[:min(room, len(ks))]...)
	}
	t.mu.Unlock()
}

var _ fs.SegmentBlockService = (*tracedSvc)(nil)

func (t *tracedSvc) Put(ctx context.Context, k keys.Key, data []byte) error {
	t.note(k)
	ctx, sp := t.rec.start(ctx, layClient, clPut, 0)
	sp.s.bytes = uint32(len(data))
	err := t.inner.Put(ctx, k, data)
	sp.end(err)
	return err
}

func (t *tracedSvc) Get(ctx context.Context, k keys.Key) ([]byte, error) {
	t.note(k)
	ctx, sp := t.rec.start(ctx, layClient, clGet, 0)
	data, err := t.inner.Get(ctx, k)
	sp.s.bytes = uint32(len(data))
	sp.end(err)
	return data, err
}

func (t *tracedSvc) Remove(ctx context.Context, k keys.Key) error {
	ctx, sp := t.rec.start(ctx, layClient, clRemove, 0)
	err := t.inner.Remove(ctx, k)
	sp.end(err)
	return err
}

func mapBytes(m map[keys.Key][]byte) uint32 {
	var n int
	for _, d := range m {
		n += len(d)
	}
	return uint32(n)
}

func (t *tracedSvc) GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	t.note(ks...)
	ctx, sp := t.rec.start(ctx, layClient, clGetMany, 0)
	out, err := t.inner.GetMany(ctx, ks)
	if sp.id != 0 {
		sp.s.bytes = mapBytes(out)
	}
	sp.end(err)
	return out, err
}

func (t *tracedSvc) GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	t.note(ks...)
	ctx, sp := t.rec.start(ctx, layClient, clGetSegment, 0)
	out, err := t.inner.GetSegment(ctx, ks)
	if sp.id != 0 {
		sp.s.bytes = mapBytes(out)
	}
	sp.end(err)
	return out, err
}

// --- transport.Transport and transport.Handler wrappers ---

// rpcKind classifies a request and reports the block payload it carries.
func rpcKind(m transport.Message) (op uint8, bytes int) {
	switch v := m.(type) {
	case *transport.PutReq:
		return rpcPut, len(v.Data)
	case *transport.GetReq:
		return rpcGet, 0
	case *transport.MultiGetReq:
		return rpcMultiGet, 0
	case *transport.FetchRangeReq:
		return rpcFetchRange, 0
	case *transport.RemoveReq:
		return rpcRemove, 0
	case *transport.FindSuccReq:
		return rpcFindSucc, 0
	case *transport.NeighborsReq:
		return rpcNeighbors, 0
	case *transport.NotifyReq:
		return rpcNotify, 0
	case *transport.PingReq:
		return rpcPing, 0
	case *transport.RangeReq:
		return rpcRange, 0
	case *transport.StatsReq, *transport.HealthReq, *transport.CensusReq, *transport.TraceFetchReq:
		return rpcScrape, 0
	}
	return rpcOther, 0
}

// respBytes is the block payload a response carries. It reads the
// message before the wrapper returns and keeps nothing: the TCP
// transport recycles pooled responses once the frame is written.
func respBytes(m transport.Message) int {
	n := 0
	switch v := m.(type) {
	case *transport.GetResp:
		n = len(v.Data)
	case *transport.MultiGetResp:
		for i := range v.Items {
			n += len(v.Items[i].Data)
		}
	case *transport.FetchRangeResp:
		for i := range v.Items {
			n += len(v.Items[i].Data)
		}
	case *transport.RangeResp:
		for i := range v.Items {
			n += len(v.Items[i].Data)
		}
	case *transport.StatsResp:
		n = len(v.SnapshotJSON)
	case *transport.HealthResp:
		n = len(v.StatusJSON) + len(v.RatesJSON)
	case *transport.CensusResp:
		n = len(v.ReportJSON)
	}
	return n
}

// tracedTransport wraps one endpoint: outbound calls become layCall
// spans, and the handler passed to Serve is wrapped so inbound requests
// become layServe spans. node is 0 for a load client's endpoint.
type tracedTransport struct {
	inner    transport.Transport
	rec      *recorder
	node     uint8
	isMember func(transport.Addr) bool
	// multiGetKeys counts the keys of recorded MultiGet requests (a count
	// at the boundary, so the ratio is measured where the work happens).
	multiGetKeys atomic.Uint64
}

var _ transport.Transport = (*tracedTransport)(nil)

func (t *tracedTransport) Addr() transport.Addr { return t.inner.Addr() }
func (t *tracedTransport) Close() error         { return t.inner.Close() }

// UseTracer forwards the optional per-endpoint tracer hook node.Start and
// node.NewClient look for.
func (t *tracedTransport) UseTracer(tr *tracing.Tracer) {
	if ut, ok := t.inner.(interface{ UseTracer(*tracing.Tracer) }); ok {
		ut.UseTracer(tr)
	}
}

func (t *tracedTransport) Call(ctx context.Context, to transport.Addr, req transport.Message) (transport.Message, error) {
	if !t.rec.on.Load() {
		return t.inner.Call(ctx, to, req)
	}
	op, n := rpcKind(req)
	ctx, sp := t.rec.start(ctx, layCall, op, t.node)
	resp, err := t.inner.Call(ctx, to, req)
	sp.s.bytes = uint32(n + respBytes(resp))
	sp.end(err)
	return resp, err
}

func (t *tracedTransport) Serve(h transport.Handler) {
	t.inner.Serve(func(ctx context.Context, from transport.Addr, req transport.Message) (transport.Message, error) {
		if !t.rec.on.Load() {
			return h(ctx, from, req)
		}
		op, n := rpcKind(req)
		if mg, ok := req.(*transport.MultiGetReq); ok {
			t.multiGetKeys.Add(uint64(len(mg.Keys)))
		}
		ctx, sp := t.rec.start(ctx, layServe, op, t.node)
		if !t.isMember(from) {
			sp.s.flags |= flagFromClient
		}
		// req must not be read after h returns: the transport recycles it.
		resp, err := h(ctx, from, req)
		sp.s.bytes = uint32(n + respBytes(resp))
		sp.end(err)
		return resp, err
	})
}

// --- store.Engine wrapper ---

// tracedStore wraps a node's engine. It forwards store.IdentityStore so
// a durable node keeps its persisted ring identity across the restart
// the write-sync workload performs.
type tracedStore struct {
	inner store.Engine
	rec   *recorder
	node  uint8
	// batchKeys counts the keys of recorded GetBatch calls.
	batchKeys atomic.Uint64
}

var (
	_ store.Engine        = (*tracedStore)(nil)
	_ store.IdentityStore = (*tracedStore)(nil)
)

func (t *tracedStore) LoadIdentity() (keys.Key, bool) {
	if is, ok := t.inner.(store.IdentityStore); ok {
		return is.LoadIdentity()
	}
	return keys.Key{}, false
}

func (t *tracedStore) SaveIdentity(id keys.Key) error {
	if is, ok := t.inner.(store.IdentityStore); ok {
		return is.SaveIdentity(id)
	}
	return fmt.Errorf("bench: engine %T persists no identity", t.inner)
}

func (t *tracedStore) Put(k keys.Key, data []byte, ttl time.Duration, now time.Time) {
	sp := t.rec.startLeaf(layStore, stPut, t.node)
	sp.s.bytes = uint32(len(data))
	t.inner.Put(k, data, ttl, now)
	sp.end(nil)
}

func (t *tracedStore) PutPointer(k keys.Key, target transport.Addr, size int64, now time.Time) {
	sp := t.rec.startLeaf(layStore, stPutPointer, t.node)
	t.inner.PutPointer(k, target, size, now)
	sp.end(nil)
}

func (t *tracedStore) Get(k keys.Key) (*store.Block, bool) {
	sp := t.rec.startLeaf(layStore, stGet, t.node)
	b, ok := t.inner.Get(k)
	if ok {
		sp.s.bytes = uint32(len(b.Data))
	}
	sp.end(nil)
	return b, ok
}

func (t *tracedStore) GetBatch(ks []keys.Key) []*store.Block {
	sp := t.rec.startLeaf(layStore, stGetBatch, t.node)
	out := t.inner.GetBatch(ks)
	if sp.id != 0 {
		n := 0
		for _, b := range out {
			if b != nil {
				n += len(b.Data)
			}
		}
		sp.s.bytes = uint32(n)
		t.batchKeys.Add(uint64(len(ks)))
	}
	sp.end(nil)
	return out
}

func (t *tracedStore) Delete(k keys.Key) bool {
	sp := t.rec.startLeaf(layStore, stDelete, t.node)
	ok := t.inner.Delete(k)
	sp.end(nil)
	return ok
}

func (t *tracedStore) Refresh(k keys.Key, ttl time.Duration, now time.Time) bool {
	sp := t.rec.startLeaf(layStore, stRefresh, t.node)
	ok := t.inner.Refresh(k, ttl, now)
	sp.end(nil)
	return ok
}

func (t *tracedStore) SweepExpired(now time.Time) int {
	sp := t.rec.startLeaf(layStore, stSweepExpired, t.node)
	n := t.inner.SweepExpired(now)
	sp.end(nil)
	return n
}

func (t *tracedStore) Arc(lo, hi keys.Key) []store.Item {
	sp := t.rec.startLeaf(layStore, stArc, t.node)
	out := t.inner.Arc(lo, hi)
	sp.end(nil)
	return out
}

func (t *tracedStore) ArcLimit(lo, hi keys.Key, limit int) ([]store.Item, bool) {
	sp := t.rec.startLeaf(layStore, stArcLimit, t.node)
	out, more := t.inner.ArcLimit(lo, hi, limit)
	sp.end(nil)
	return out, more
}

func (t *tracedStore) ArcBytes(lo, hi keys.Key) int64 {
	sp := t.rec.startLeaf(layStore, stArcBytes, t.node)
	n := t.inner.ArcBytes(lo, hi)
	sp.end(nil)
	return n
}

func (t *tracedStore) ArcVisit(lo, hi keys.Key, fn func(k keys.Key, m store.Meta) bool) {
	sp := t.rec.startLeaf(layStore, stArcVisit, t.node)
	t.inner.ArcVisit(lo, hi, fn)
	sp.end(nil)
}

func (t *tracedStore) MedianKey(lo, hi keys.Key) (keys.Key, bool) {
	sp := t.rec.startLeaf(layStore, stMedianKey, t.node)
	k, ok := t.inner.MedianKey(lo, hi)
	sp.end(nil)
	return k, ok
}

func (t *tracedStore) StalePointers(deadline time.Time) []store.Item {
	sp := t.rec.startLeaf(layStore, stStalePointers, t.node)
	out := t.inner.StalePointers(deadline)
	sp.end(nil)
	return out
}

func (t *tracedStore) Keys() []keys.Key {
	sp := t.rec.startLeaf(layStore, stKeys, t.node)
	out := t.inner.Keys()
	sp.end(nil)
	return out
}

func (t *tracedStore) Len() int     { return t.inner.Len() }
func (t *tracedStore) Bytes() int64 { return t.inner.Bytes() }

func (t *tracedStore) Flush() error {
	sp := t.rec.startLeaf(layStore, stFlush, t.node)
	err := t.inner.Flush()
	sp.end(err)
	return err
}

func (t *tracedStore) Close() error { return t.inner.Close() }
