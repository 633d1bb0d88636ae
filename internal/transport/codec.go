// Hand-rolled binary wire codec for the transport: a length-prefixed
// frame header plus per-message append/decode marshalers built on
// internal/wire. No reflection, no interface boxing, no per-message type
// dictionaries — the encoder appends straight into a pooled buffer and
// large payloads ride out as borrowed net.Buffers segments (writev), so a
// 64-item FetchRangeResp leaves the process without a coalescing copy.
//
// Frame layout (v1), big-endian:
//
//	u32  len    — byte count of everything after this field
//	u8   ver    — wireVersion; receivers reject other versions
//	u8   flags  — bit 0: frame carries a trailing CRC-32C
//	u8   typ    — message type (tPingReq..tErrResp)
//	u8   fromLen
//	u64  tag    — request/response matching on a multiplexed stream
//	u64  trace  — caller's trace ID (0 = untraced)
//	u64  span   — caller's span ID
//	...  from   — sender address, fromLen bytes
//	...  body   — message fields, layouts below
//	[u32 crc]   — CRC-32C over ver..body, present iff flagCRC
//
// Buffer-ownership contract (the whole point of the design):
//
//   - Decode borrows: []byte fields of decoded messages alias the frame
//     buffer. For message types that carry block payloads (the `borrows`
//     table) the frame buffer's ownership passes to the receiver of the
//     message and the buffer is never pooled; for every other type the
//     transport recycles the buffer as soon as decode returns.
//   - Encode borrows the other way: payload slices handed to the encoder
//     are read, not copied, until the frame is fully written.
//   - Decoded request structs come from per-type pools and are recycled
//     after the handler returns. Handlers may retain slice fields they
//     extracted (the store keeps PutReq.Data) but must not retain the
//     message struct itself.
package transport

import (
	"fmt"
	"net"
	"sync"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/wire"
)

const (
	// wireVersion is the protocol generation. Bump on any layout change;
	// receivers drop frames from other generations instead of guessing.
	wireVersion = 1

	// flagCRC marks a frame carrying a trailing CRC-32C.
	flagCRC = 0x01

	// frameHeaderLen is the fixed header size including the length prefix.
	frameHeaderLen = 4 + 4 + 24

	// maxFrame caps a frame's post-length-prefix size. Anything larger is
	// a corrupt or hostile stream; rejecting before allocation bounds
	// decode memory.
	maxFrame = 64 << 20

	// vectorMin is the payload size at which the encoder stops copying
	// into the frame buffer and emits a borrowed writev segment instead.
	// Below it the iovec bookkeeping costs more than the copy.
	vectorMin = 256

	// maxPooledBuf caps the capacity of frame buffers kept in the pool so
	// one giant migration frame does not pin megabytes forever.
	maxPooledBuf = 1 << 20
)

// Wire message types, fixed for v1. Order is append-only: new types take
// new numbers, removed types leave holes.
const (
	tInvalid byte = iota
	tPingReq
	tPingResp
	tFindSuccReq
	tFindSuccResp
	tNeighborsReq
	tNeighborsResp
	tNotifyReq
	tNotifyResp
	tPutReq
	tPutResp
	tGetReq
	tGetResp
	tRemoveReq
	tRemoveResp
	tLoadReq
	tLoadResp
	tSplitReq
	tSplitResp
	tRangeReq
	tRangeResp
	tMultiGetReq
	tMultiGetResp
	tFetchRangeReq
	tFetchRangeResp
	tPutPtrReq
	tPutPtrResp
	tSampleReq
	tSampleResp
	tStatsReq
	tStatsResp
	tTraceFetchReq
	tTraceFetchResp
	tErrResp
	tHealthReq
	tHealthResp
	tCensusReq
	tCensusResp
	tMultiPutReq
	tMultiPutResp
	numWireTypes
)

// wireType maps a message to its wire type byte (0 for foreign types).
func wireType(m Message) byte {
	switch m.(type) {
	case *PingReq:
		return tPingReq
	case *PingResp:
		return tPingResp
	case *FindSuccReq:
		return tFindSuccReq
	case *FindSuccResp:
		return tFindSuccResp
	case *NeighborsReq:
		return tNeighborsReq
	case *NeighborsResp:
		return tNeighborsResp
	case *NotifyReq:
		return tNotifyReq
	case *NotifyResp:
		return tNotifyResp
	case *PutReq:
		return tPutReq
	case *PutResp:
		return tPutResp
	case *GetReq:
		return tGetReq
	case *GetResp:
		return tGetResp
	case *RemoveReq:
		return tRemoveReq
	case *RemoveResp:
		return tRemoveResp
	case *LoadReq:
		return tLoadReq
	case *LoadResp:
		return tLoadResp
	case *SplitReq:
		return tSplitReq
	case *SplitResp:
		return tSplitResp
	case *RangeReq:
		return tRangeReq
	case *RangeResp:
		return tRangeResp
	case *MultiGetReq:
		return tMultiGetReq
	case *MultiGetResp:
		return tMultiGetResp
	case *FetchRangeReq:
		return tFetchRangeReq
	case *FetchRangeResp:
		return tFetchRangeResp
	case *PutPtrReq:
		return tPutPtrReq
	case *PutPtrResp:
		return tPutPtrResp
	case *SampleReq:
		return tSampleReq
	case *SampleResp:
		return tSampleResp
	case *StatsReq:
		return tStatsReq
	case *StatsResp:
		return tStatsResp
	case *TraceFetchReq:
		return tTraceFetchReq
	case *TraceFetchResp:
		return tTraceFetchResp
	case *ErrResp:
		return tErrResp
	case *HealthReq:
		return tHealthReq
	case *HealthResp:
		return tHealthResp
	case *CensusReq:
		return tCensusReq
	case *CensusResp:
		return tCensusResp
	case *MultiPutReq:
		return tMultiPutReq
	case *MultiPutResp:
		return tMultiPutResp
	default:
		return tInvalid
	}
}

// borrows marks the message types whose decoded form aliases block-payload
// bytes in the frame buffer. Their frame buffers change ownership at
// decode (store or caller keeps the data) and are never pooled; all other
// types are fully copied out at decode and their buffers recycle
// immediately.
var borrows = [numWireTypes]bool{
	tPutReq:         true,
	tGetResp:        true,
	tMultiGetResp:   true,
	tFetchRangeResp: true,
	tRangeResp:      true,
	tStatsResp:      true,
	tHealthResp:     true,
	tCensusResp:     true,
	tMultiPutReq:    true,
}

// --- message struct pools ---

// msgPools holds one pool per wire type so the serve path reuses request
// structs (and their slice capacity) instead of allocating per frame.
// Structs taken for client-side responses simply never come back — a pool
// miss is an allocation, exactly the pre-pool behavior.
var msgPools = [numWireTypes]*sync.Pool{
	tPingReq:        {New: func() any { return new(PingReq) }},
	tPingResp:       {New: func() any { return new(PingResp) }},
	tFindSuccReq:    {New: func() any { return new(FindSuccReq) }},
	tFindSuccResp:   {New: func() any { return new(FindSuccResp) }},
	tNeighborsReq:   {New: func() any { return new(NeighborsReq) }},
	tNeighborsResp:  {New: func() any { return new(NeighborsResp) }},
	tNotifyReq:      {New: func() any { return new(NotifyReq) }},
	tNotifyResp:     {New: func() any { return new(NotifyResp) }},
	tPutReq:         {New: func() any { return new(PutReq) }},
	tPutResp:        {New: func() any { return new(PutResp) }},
	tGetReq:         {New: func() any { return new(GetReq) }},
	tGetResp:        {New: func() any { return new(GetResp) }},
	tRemoveReq:      {New: func() any { return new(RemoveReq) }},
	tRemoveResp:     {New: func() any { return new(RemoveResp) }},
	tLoadReq:        {New: func() any { return new(LoadReq) }},
	tLoadResp:       {New: func() any { return new(LoadResp) }},
	tSplitReq:       {New: func() any { return new(SplitReq) }},
	tSplitResp:      {New: func() any { return new(SplitResp) }},
	tRangeReq:       {New: func() any { return new(RangeReq) }},
	tRangeResp:      {New: func() any { return new(RangeResp) }},
	tMultiGetReq:    {New: func() any { return new(MultiGetReq) }},
	tMultiGetResp:   {New: func() any { return new(MultiGetResp) }},
	tFetchRangeReq:  {New: func() any { return new(FetchRangeReq) }},
	tFetchRangeResp: {New: func() any { return new(FetchRangeResp) }},
	tPutPtrReq:      {New: func() any { return new(PutPtrReq) }},
	tPutPtrResp:     {New: func() any { return new(PutPtrResp) }},
	tSampleReq:      {New: func() any { return new(SampleReq) }},
	tSampleResp:     {New: func() any { return new(SampleResp) }},
	tStatsReq:       {New: func() any { return new(StatsReq) }},
	tStatsResp:      {New: func() any { return new(StatsResp) }},
	tTraceFetchReq:  {New: func() any { return new(TraceFetchReq) }},
	tTraceFetchResp: {New: func() any { return new(TraceFetchResp) }},
	tErrResp:        {New: func() any { return new(ErrResp) }},
	tHealthReq:      {New: func() any { return new(HealthReq) }},
	tHealthResp:     {New: func() any { return new(HealthResp) }},
	tCensusReq:      {New: func() any { return new(CensusReq) }},
	tCensusResp:     {New: func() any { return new(CensusResp) }},
	tMultiPutReq:    {New: func() any { return new(MultiPutReq) }},
	tMultiPutResp:   {New: func() any { return new(MultiPutResp) }},
}

// recycleMessage returns a decoded message struct to its type pool. Safe
// only when no one retains the struct itself; decode reassigns every
// field, so stale slice aliases in pooled structs are overwritten before
// the next use.
func recycleMessage(m Message) {
	if t := wireType(m); t != tInvalid {
		if t == tMultiPutReq {
			// Drop the payload aliases now: a pooled struct would otherwise
			// pin its whole frame buffer until it is reused.
			clear(m.(*MultiPutReq).Data)
		}
		msgPools[t].Put(m)
	}
}

// AcquireFetchRangeResp returns a pooled response whose Items slice keeps
// its capacity across uses. A response built this way is recycled by the
// TCP transport after it is written to the wire, so a busy server's bulk
// read path stops allocating response scaffolding per RPC. Over the mem
// transport the struct simply escapes to the caller (never recycled).
func AcquireFetchRangeResp() *FetchRangeResp {
	r := msgPools[tFetchRangeResp].Get().(*FetchRangeResp)
	r.Items = r.Items[:0]
	r.More = false
	r.pooled = true
	return r
}

// AcquireMultiGetResp is AcquireFetchRangeResp for MultiGetResp.
func AcquireMultiGetResp() *MultiGetResp {
	r := msgPools[tMultiGetResp].Get().(*MultiGetResp)
	r.Items = r.Items[:0]
	r.pooled = true
	return r
}

// recycleResponse returns an Acquire-built response to its pool once the
// wire no longer borrows its payload slices. Non-pooled responses pass
// through untouched.
func recycleResponse(m Message) {
	switch v := m.(type) {
	case *FetchRangeResp:
		if v.pooled {
			v.pooled = false
			msgPools[tFetchRangeResp].Put(v)
		}
	case *MultiGetResp:
		if v.pooled {
			v.pooled = false
			msgPools[tMultiGetResp].Put(v)
		}
	}
}

// --- frame buffer pool ---

// frameBuf is a pooled read buffer. It is a wrapper (not a bare []byte)
// so pool round trips do not re-box the slice header.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 4096)} }}

// getFrame returns a pooled buffer resized to exactly n bytes.
func getFrame(n int) *frameBuf {
	f := framePool.Get().(*frameBuf)
	if cap(f.b) < n {
		f.b = make([]byte, n)
	}
	f.b = f.b[:n]
	return f
}

// putFrame recycles a frame buffer whose bytes are no longer referenced.
func putFrame(f *frameBuf) {
	if cap(f.b) <= maxPooledBuf {
		framePool.Put(f)
	}
}

// --- encoder ---

// frameEncoder builds one frame: fixed header and small fields append into
// buf; payloads at least vectorMin long are recorded as (offset, slice)
// cuts and materialized as separate net.Buffers segments at finish, after
// buf can no longer reallocate. Encoders are pooled; one instance's buf,
// cut list, and iovec list all retain capacity across frames.
type frameEncoder struct {
	buf  []byte
	cuts []int    // buf offsets where a payload splices in
	pays [][]byte // the payloads, parallel to cuts
	iov  [][]byte // persistent iovec backing; out aliases it
	out  net.Buffers
	n    int // total frame bytes, set by finish
}

var encPool = sync.Pool{New: func() any { return new(frameEncoder) }}

func getEncoder() *frameEncoder { return encPool.Get().(*frameEncoder) }

// putEncoder recycles an encoder once its frame is written. The borrowed
// payload slices are dropped first so the pool does not pin them, and an
// encoder whose buffer one giant frame grew is not kept.
func putEncoder(e *frameEncoder) {
	clear(e.pays)
	clear(e.iov)
	e.out = nil
	if cap(e.buf) <= maxPooledBuf {
		encPool.Put(e)
	}
}

// blob appends a u32-length-prefixed payload, vectoring large slices.
func (e *frameEncoder) blob(p []byte) {
	e.buf = wire.AppendU32(e.buf, uint32(len(p)))
	if len(p) == 0 {
		return
	}
	if len(p) < vectorMin {
		e.buf = append(e.buf, p...)
		return
	}
	e.cuts = append(e.cuts, len(e.buf))
	e.pays = append(e.pays, p)
}

func (e *frameEncoder) peer(p *PeerInfo) {
	e.buf = append(e.buf, p.ID[:]...)
	e.buf = wire.AppendShortString(e.buf, string(p.Addr))
}

// encode builds the complete frame for one message. After it returns,
// buffers() yields the writev segments; the payload slices inside m stay
// borrowed until the write completes.
func (e *frameEncoder) encode(tag, trace, span uint64, from Addr, m Message, crc bool) error {
	typ := wireType(m)
	if typ == tInvalid {
		return fmt.Errorf("transport: cannot encode message type %T", m)
	}
	if len(from) > 0xff {
		return fmt.Errorf("transport: from address %q too long", from)
	}
	var flags byte
	if crc {
		flags = flagCRC
	}
	e.cuts = e.cuts[:0]
	e.pays = e.pays[:0]
	b := e.buf[:0]
	b = wire.AppendU32(b, 0) // length, patched below
	b = append(b, wireVersion, flags, typ, byte(len(from)))
	b = wire.AppendU64(b, tag)
	b = wire.AppendU64(b, trace)
	b = wire.AppendU64(b, span)
	b = append(b, from...)
	e.buf = b
	e.body(typ, m)

	total := len(e.buf) - 4
	for _, p := range e.pays {
		total += len(p)
	}
	if crc {
		sum := e.checksum()
		e.buf = wire.AppendU32(e.buf, sum)
		total += 4
	}
	if total > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds %d limit", total, maxFrame)
	}
	wire.PutU32(e.buf, 0, uint32(total))
	e.n = total + 4

	// Materialize writev segments only now: every append above may have
	// moved buf, so subslices taken earlier would dangle. The segments
	// build in e.iov (whose capacity persists across frames) and e.out is
	// a fresh header over it — net.Buffers.WriteTo consumes the header it
	// is given, so handing it e.iov itself would strip the capacity and
	// re-allocate the iovec list every frame.
	iov := e.iov[:0]
	prev := 0
	for i, cut := range e.cuts {
		iov = append(iov, e.buf[prev:cut], e.pays[i])
		prev = cut
	}
	iov = append(iov, e.buf[prev:])
	e.iov = iov
	e.out = net.Buffers(iov)
	return nil
}

// checksum computes the CRC-32C over ver..body in segment order (the CRC
// field itself is excluded; the length prefix is too).
func (e *frameEncoder) checksum() uint32 {
	var sum uint32
	prev := 4
	for i, cut := range e.cuts {
		sum = wire.ChecksumUpdate(sum, e.buf[prev:cut])
		sum = wire.ChecksumUpdate(sum, e.pays[i])
		prev = cut
	}
	return wire.ChecksumUpdate(sum, e.buf[prev:])
}

// buffers returns the frame's writev segments. Valid until the next
// encode on this encoder. net.Buffers.WriteTo consumes the slice, so
// callers pass &e.out directly and it is rebuilt next encode.
func (e *frameEncoder) buffers() *net.Buffers { return &e.out }

// size returns the total frame length in bytes, length prefix included.
func (e *frameEncoder) size() int { return e.n }

// appendBytes flattens the frame into dst (tests, fixtures, non-socket
// surfaces). Must be called before anything consumes buffers().
func (e *frameEncoder) appendBytes(dst []byte) []byte {
	for _, seg := range e.out {
		dst = append(dst, seg...)
	}
	return dst
}

// body appends the message fields for each wire type. Field order is part
// of the v1 wire contract (golden tests pin it); payload blobs go last so
// the cut list stays short.
func (e *frameEncoder) body(typ byte, m Message) {
	b := e.buf
	switch typ {
	case tPingReq, tNeighborsReq, tNotifyResp, tPutResp, tRemoveResp,
		tLoadReq, tSplitReq, tPutPtrResp, tStatsReq, tHealthReq, tCensusReq,
		tMultiPutResp:
		return // empty bodies
	case tPingResp:
		v := m.(*PingResp)
		e.peer(&v.Self)
		return
	case tFindSuccReq:
		v := m.(*FindSuccReq)
		e.buf = append(b, v.Key[:]...)
		return
	case tFindSuccResp:
		v := m.(*FindSuccResp)
		b = wire.AppendBool(b, v.Done)
		e.buf = b
		e.peer(&v.Node)
		e.peer(&v.Pred)
		return
	case tNeighborsResp:
		v := m.(*NeighborsResp)
		e.peer(&v.Self)
		e.peer(&v.Pred)
		e.buf = wire.AppendU32(e.buf, uint32(len(v.Succs)))
		for i := range v.Succs {
			e.peer(&v.Succs[i])
		}
		return
	case tNotifyReq:
		v := m.(*NotifyReq)
		e.peer(&v.Cand)
		return
	case tPutReq:
		v := m.(*PutReq)
		b = append(b, v.Key[:]...)
		b = wire.AppendBool(b, v.Replicate)
		b = wire.AppendI64(b, v.TTL)
		e.buf = b
		e.blob(v.Data)
		return
	case tGetReq:
		v := m.(*GetReq)
		e.buf = append(b, v.Key[:]...)
		return
	case tGetResp:
		v := m.(*GetResp)
		b = wire.AppendBool(b, v.Found)
		b = wire.AppendShortString(b, string(v.Redirect))
		e.buf = b
		e.blob(v.Data)
		return
	case tRemoveReq:
		v := m.(*RemoveReq)
		b = append(b, v.Key[:]...)
		b = wire.AppendI64(b, v.DelaySec)
		b = wire.AppendBool(b, v.Replicate)
		e.buf = b
		return
	case tLoadResp:
		v := m.(*LoadResp)
		e.peer(&v.Self)
		b = wire.AppendI64(e.buf, v.RespBytes)
		b = wire.AppendI64(b, v.StoredBytes)
		e.buf = b
		return
	case tSplitResp:
		v := m.(*SplitResp)
		b = wire.AppendBool(b, v.Ok)
		b = append(b, v.Median[:]...)
		e.buf = b
		return
	case tRangeReq:
		v := m.(*RangeReq)
		b = append(b, v.Lo[:]...)
		b = append(b, v.Hi[:]...)
		b = wire.AppendBool(b, v.WithData)
		b = wire.AppendBool(b, v.WithPointers)
		b = wire.AppendI64(b, int64(v.Limit))
		e.buf = b
		return
	case tRangeResp:
		v := m.(*RangeResp)
		e.buf = wire.AppendU32(b, uint32(len(v.Items)))
		for i := range v.Items {
			it := &v.Items[i]
			nb := append(e.buf, it.Key[:]...)
			nb = wire.AppendI64(nb, it.Size)
			nb = wire.AppendShortString(nb, string(it.Pointer))
			e.buf = nb
			e.blob(it.Data)
		}
		return
	case tMultiGetReq:
		v := m.(*MultiGetReq)
		b = wire.AppendU32(b, uint32(len(v.Keys)))
		for i := range v.Keys {
			b = append(b, v.Keys[i][:]...)
		}
		e.buf = b
		return
	case tMultiGetResp:
		v := m.(*MultiGetResp)
		e.buf = wire.AppendU32(b, uint32(len(v.Items)))
		e.batchItems(v.Items)
		return
	case tMultiPutReq:
		v := m.(*MultiPutReq)
		b = wire.AppendBool(b, v.Replicate)
		b = wire.AppendI64(b, v.TTL)
		// Keys and Data are parallel; a malformed request encodes its
		// common prefix rather than panicking mid-frame.
		n := min(len(v.Keys), len(v.Data))
		e.buf = wire.AppendU32(b, uint32(n))
		for i := 0; i < n; i++ {
			e.buf = append(e.buf, v.Keys[i][:]...)
			e.blob(v.Data[i])
		}
		return
	case tFetchRangeReq:
		v := m.(*FetchRangeReq)
		b = append(b, v.Lo[:]...)
		b = append(b, v.Hi[:]...)
		b = wire.AppendI64(b, int64(v.Limit))
		e.buf = b
		return
	case tFetchRangeResp:
		v := m.(*FetchRangeResp)
		b = wire.AppendBool(b, v.More)
		e.buf = wire.AppendU32(b, uint32(len(v.Items)))
		e.batchItems(v.Items)
		return
	case tPutPtrReq:
		v := m.(*PutPtrReq)
		b = append(b, v.Key[:]...)
		b = wire.AppendShortString(b, string(v.Target))
		b = wire.AppendI64(b, v.Size)
		e.buf = b
		return
	case tSampleReq:
		v := m.(*SampleReq)
		e.buf = wire.AppendI64(b, int64(v.Hops))
		return
	case tSampleResp:
		v := m.(*SampleResp)
		e.peer(&v.Peer)
		return
	case tStatsResp:
		v := m.(*StatsResp)
		e.peer(&v.Self)
		e.peer(&v.Pred)
		b = wire.AppendI64(e.buf, v.RespBytes)
		b = wire.AppendI64(b, v.StoredBytes)
		b = wire.AppendI64(b, v.Blocks)
		e.buf = b
		e.blob(v.SnapshotJSON)
		return
	case tTraceFetchReq:
		v := m.(*TraceFetchReq)
		b = wire.AppendU64(b, v.Trace)
		b = wire.AppendI64(b, int64(v.Limit))
		e.buf = b
		return
	case tTraceFetchResp:
		v := m.(*TraceFetchResp)
		b = wire.AppendU32(b, uint32(len(v.Spans)))
		for i := range v.Spans {
			s := &v.Spans[i]
			b = wire.AppendU64(b, s.Trace)
			b = wire.AppendU64(b, s.ID)
			b = wire.AppendU64(b, s.Parent)
			b = wire.AppendShortString(b, s.Name)
			b = wire.AppendShortString(b, s.Node)
			b = wire.AppendI64(b, s.Start)
			b = wire.AppendI64(b, s.Dur)
			b = wire.AppendString(b, s.Attrs)
		}
		e.buf = b
		return
	case tErrResp:
		v := m.(*ErrResp)
		e.buf = wire.AppendString(b, v.Err)
		return
	case tHealthResp:
		v := m.(*HealthResp)
		e.peer(&v.Self)
		e.peer(&v.Pred)
		b = wire.AppendI64(e.buf, v.RespBytes)
		b = wire.AppendI64(b, v.StoredBytes)
		b = wire.AppendI64(b, v.Blocks)
		b = wire.AppendShortString(b, v.State)
		e.buf = b
		e.blob(v.StatusJSON)
		e.blob(v.RatesJSON)
		return
	case tCensusResp:
		v := m.(*CensusResp)
		e.peer(&v.Self)
		e.peer(&v.Pred)
		b = wire.AppendI64(e.buf, v.RespBytes)
		b = wire.AppendI64(b, v.StoredBytes)
		b = wire.AppendI64(b, v.Blocks)
		e.buf = b
		e.blob(v.ReportJSON)
		return
	}
}

// batchItems appends a run of BatchItems (shared by MultiGetResp and
// FetchRangeResp). The caller has already written the count.
func (e *frameEncoder) batchItems(items []BatchItem) {
	for i := range items {
		it := &items[i]
		b := append(e.buf, it.Key[:]...)
		b = wire.AppendBool(b, it.Found)
		b = wire.AppendShortString(b, string(it.Redirect))
		e.buf = b
		e.blob(it.Data)
	}
}

// --- decoder ---

// frameHeader is a parsed frame before message decode. from and body
// borrow the frame buffer.
type frameHeader struct {
	typ   byte
	flags byte
	tag   uint64
	trace uint64
	span  uint64
	from  []byte
	body  []byte
}

// parseFrame splits a frame (the bytes after the length prefix) into its
// header and body and verifies version and checksum.
func parseFrame(buf []byte) (frameHeader, error) {
	var h frameHeader
	if len(buf) < frameHeaderLen-4 {
		return h, fmt.Errorf("%w: frame of %d bytes", wire.ErrTruncated, len(buf))
	}
	if buf[0] != wireVersion {
		return h, fmt.Errorf("%w: wire version %d (want %d)", wire.ErrMalformed, buf[0], wireVersion)
	}
	h.flags = buf[1]
	h.typ = buf[2]
	fromLen := int(buf[3])
	r := wire.NewReader(buf[4:])
	h.tag = r.U64()
	h.trace = r.U64()
	h.span = r.U64()
	h.from = r.Take(fromLen)
	if err := r.Err(); err != nil {
		return h, err
	}
	body := buf[4+24+fromLen:]
	if h.flags&flagCRC != 0 {
		if len(body) < 4 {
			return h, fmt.Errorf("%w: CRC flag without CRC", wire.ErrTruncated)
		}
		body = body[:len(body)-4]
		want := wire.U32(buf, len(buf)-4)
		if got := wire.Checksum(buf[:len(buf)-4]); got != want {
			return h, fmt.Errorf("%w: CRC mismatch %08x != %08x", wire.ErrMalformed, got, want)
		}
	}
	if h.typ == tInvalid || h.typ >= numWireTypes {
		return h, fmt.Errorf("%w: unknown message type %d", wire.ErrMalformed, h.typ)
	}
	h.body = body
	return h, nil
}

// sliceFor reuses s's capacity for n elements, allocating only on growth.
func sliceFor[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func readKey(r *wire.Reader, k *keys.Key) {
	copy(k[:], r.Take(keys.Size))
}

func readPeer(r *wire.Reader, p *PeerInfo) {
	readKey(r, &p.ID)
	p.Addr = Addr(r.ShortString())
}

// minPeer is the smallest encoded PeerInfo (empty address).
const minPeer = keys.Size + 2

// decodeMessage decodes a frame body into a (pooled) message struct.
// []byte fields borrow body; see the package comment for ownership. On
// error the partially filled struct is discarded, not recycled — the
// error path is cold and dropping it avoids reasoning about aliases.
func decodeMessage(typ byte, body []byte) (Message, error) {
	r := wire.NewReader(body)
	m := decodeBody(typ, &r)
	r.ExpectEmpty()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("transport: decode %s: %w", kindNames[wireKinds[typ]], err)
	}
	return m, nil
}

// decodeBody reads one message's fields. Split from decodeMessage so the
// trailing-garbage check and error wrap live in one place.
func decodeBody(typ byte, r *wire.Reader) Message {
	m := msgPools[typ].Get().(Message)
	switch typ {
	case tPingReq, tNeighborsReq, tNotifyResp, tPutResp, tRemoveResp,
		tLoadReq, tSplitReq, tPutPtrResp, tStatsReq, tHealthReq, tCensusReq,
		tMultiPutResp:
		return m
	case tPingResp:
		v := m.(*PingResp)
		readPeer(r, &v.Self)
	case tFindSuccReq:
		v := m.(*FindSuccReq)
		readKey(r, &v.Key)
	case tFindSuccResp:
		v := m.(*FindSuccResp)
		v.Done = r.Bool()
		readPeer(r, &v.Node)
		readPeer(r, &v.Pred)
	case tNeighborsResp:
		v := m.(*NeighborsResp)
		readPeer(r, &v.Self)
		readPeer(r, &v.Pred)
		n := r.Count(minPeer)
		v.Succs = sliceFor(v.Succs, n)
		for i := range v.Succs {
			readPeer(r, &v.Succs[i])
		}
	case tNotifyReq:
		v := m.(*NotifyReq)
		readPeer(r, &v.Cand)
	case tPutReq:
		v := m.(*PutReq)
		readKey(r, &v.Key)
		v.Replicate = r.Bool()
		v.TTL = r.I64()
		v.Data = r.Bytes()
	case tGetReq:
		v := m.(*GetReq)
		readKey(r, &v.Key)
	case tGetResp:
		v := m.(*GetResp)
		v.Found = r.Bool()
		v.Redirect = Addr(r.ShortString())
		v.Data = r.Bytes()
	case tRemoveReq:
		v := m.(*RemoveReq)
		readKey(r, &v.Key)
		v.DelaySec = r.I64()
		v.Replicate = r.Bool()
	case tLoadResp:
		v := m.(*LoadResp)
		readPeer(r, &v.Self)
		v.RespBytes = r.I64()
		v.StoredBytes = r.I64()
	case tSplitResp:
		v := m.(*SplitResp)
		v.Ok = r.Bool()
		readKey(r, &v.Median)
	case tRangeReq:
		v := m.(*RangeReq)
		readKey(r, &v.Lo)
		readKey(r, &v.Hi)
		v.WithData = r.Bool()
		v.WithPointers = r.Bool()
		v.Limit = int(r.I64())
	case tRangeResp:
		v := m.(*RangeResp)
		n := r.Count(keys.Size + 8 + 2 + 4)
		v.Items = sliceFor(v.Items, n)
		for i := range v.Items {
			it := &v.Items[i]
			readKey(r, &it.Key)
			it.Size = r.I64()
			it.Pointer = Addr(r.ShortString())
			it.Data = r.Bytes()
		}
	case tMultiGetReq:
		v := m.(*MultiGetReq)
		n := r.Count(keys.Size)
		v.Keys = sliceFor(v.Keys, n)
		for i := range v.Keys {
			readKey(r, &v.Keys[i])
		}
	case tMultiGetResp:
		v := m.(*MultiGetResp)
		n := r.Count(minBatchItem)
		v.Items = readBatchItems(r, sliceFor(v.Items, n))
	case tMultiPutReq:
		v := m.(*MultiPutReq)
		v.Replicate = r.Bool()
		v.TTL = r.I64()
		n := r.Count(keys.Size + 4)
		v.Keys = sliceFor(v.Keys, n)
		v.Data = sliceFor(v.Data, n)
		for i := range v.Keys {
			readKey(r, &v.Keys[i])
			v.Data[i] = r.Bytes()
		}
	case tFetchRangeReq:
		v := m.(*FetchRangeReq)
		readKey(r, &v.Lo)
		readKey(r, &v.Hi)
		v.Limit = int(r.I64())
	case tFetchRangeResp:
		v := m.(*FetchRangeResp)
		v.More = r.Bool()
		n := r.Count(minBatchItem)
		v.Items = readBatchItems(r, sliceFor(v.Items, n))
	case tPutPtrReq:
		v := m.(*PutPtrReq)
		readKey(r, &v.Key)
		v.Target = Addr(r.ShortString())
		v.Size = r.I64()
	case tSampleReq:
		v := m.(*SampleReq)
		v.Hops = int(r.I64())
	case tSampleResp:
		v := m.(*SampleResp)
		readPeer(r, &v.Peer)
	case tStatsResp:
		v := m.(*StatsResp)
		readPeer(r, &v.Self)
		readPeer(r, &v.Pred)
		v.RespBytes = r.I64()
		v.StoredBytes = r.I64()
		v.Blocks = r.I64()
		v.SnapshotJSON = r.Bytes()
	case tTraceFetchReq:
		v := m.(*TraceFetchReq)
		v.Trace = r.U64()
		v.Limit = int(r.I64())
	case tTraceFetchResp:
		v := m.(*TraceFetchResp)
		n := r.Count(3*8 + 2 + 2 + 8 + 8 + 4)
		v.Spans = sliceFor(v.Spans, n)
		for i := range v.Spans {
			s := &v.Spans[i]
			*s = tracing.Span{
				Trace:  r.U64(),
				ID:     r.U64(),
				Parent: r.U64(),
				Name:   r.ShortString(),
				Node:   r.ShortString(),
				Start:  r.I64(),
				Dur:    r.I64(),
				Attrs:  r.String(),
			}
		}
	case tErrResp:
		v := m.(*ErrResp)
		v.Err = r.String()
	case tHealthResp:
		v := m.(*HealthResp)
		readPeer(r, &v.Self)
		readPeer(r, &v.Pred)
		v.RespBytes = r.I64()
		v.StoredBytes = r.I64()
		v.Blocks = r.I64()
		v.State = r.ShortString()
		v.StatusJSON = r.Bytes()
		v.RatesJSON = r.Bytes()
	case tCensusResp:
		v := m.(*CensusResp)
		readPeer(r, &v.Self)
		readPeer(r, &v.Pred)
		v.RespBytes = r.I64()
		v.StoredBytes = r.I64()
		v.Blocks = r.I64()
		v.ReportJSON = r.Bytes()
	}
	return m
}

// minBatchItem is the smallest encoded BatchItem.
const minBatchItem = keys.Size + 1 + 2 + 4

// readBatchItems fills a pre-sized BatchItem slice.
func readBatchItems(r *wire.Reader, items []BatchItem) []BatchItem {
	for i := range items {
		it := &items[i]
		readKey(r, &it.Key)
		it.Found = r.Bool()
		it.Redirect = Addr(r.ShortString())
		it.Data = r.Bytes()
	}
	return items
}
