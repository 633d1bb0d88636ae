package transport

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/wire"
)

// TCPTransport is a Transport over TCP speaking the hand-rolled binary
// frame protocol in codec.go. Requests to one destination spread over a
// small pool of pipelined connections (pool.go): each call writes a
// tagged frame on the least-loaded stream and waits for the response
// carrying its tag, so batch fan-out neither serializes behind earlier
// in-flight calls nor behind one socket's bandwidth. The serve path is
// allocation-free at steady state: pooled frame buffers, pooled request
// structs, reused worker goroutines, and vectored (writev) responses
// whose block payloads leave the process without a coalescing copy. (The
// paper's D2-Store prototype used one request per connection, §7; this is
// the production version of that path.)
type TCPTransport struct {
	addr Addr
	ln   net.Listener

	mu      sync.Mutex
	handler Handler
	pools   map[Addr]*peerPool
	serving map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
	stop    chan struct{}

	// DialTimeout bounds connection establishment. Set before traffic.
	DialTimeout time.Duration

	// pool knobs, guarded by mu (SetPoolConfig).
	poolSize    int
	backoffBase time.Duration
	backoffMax  time.Duration
	idleTimeout time.Duration

	metrics *RPCMetrics
	tracer  *tracing.Tracer
}

// Pool and framing defaults.
const (
	defaultPoolSize    = 4
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffMax  = 3 * time.Second
	defaultIdleTimeout = 2 * time.Minute
)

// UseTracer attaches a request tracer to the endpoint: outbound calls
// belonging to a sampled trace record an rpc.<kind> send span, and the
// trace position rides the frame header either way.
func (t *TCPTransport) UseTracer(tr *tracing.Tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracer = tr
}

// endpointTracer returns the endpoint's tracer (nil when off).
func (t *TCPTransport) endpointTracer() *tracing.Tracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tracer
}

// UseMetrics attaches RPC metrics to the endpoint. Call before traffic
// starts; connections opened earlier are not counted.
func (t *TCPTransport) UseMetrics(m *RPCMetrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.metrics = m
}

// rpcMetrics returns the endpoint's metrics (nil when off).
func (t *TCPTransport) rpcMetrics() *RPCMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.metrics
}

// SetPoolConfig tunes the per-peer connection pools: size is the stream
// count per peer, base/max bound the reconnect backoff, idle is the
// eviction age for unused connections. Zero keeps a knob's default.
func (t *TCPTransport) SetPoolConfig(size int, base, max, idle time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if size > 0 {
		t.poolSize = size
	}
	if base > 0 {
		t.backoffBase = base
	}
	if max > 0 {
		t.backoffMax = max
	}
	if idle > 0 {
		t.idleTimeout = idle
	}
}

// poolConfig reads the pool knobs consistently.
func (t *TCPTransport) poolConfig() (size int, base, max, idle time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.poolSize, t.backoffBase, t.backoffMax, t.idleTimeout
}

var _ Transport = (*TCPTransport)(nil)

// ListenTCP starts a TCP endpoint on the given address ("127.0.0.1:0"
// picks a free port).
func ListenTCP(bind string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", bind, err)
	}
	t := &TCPTransport{
		addr:        Addr(ln.Addr().String()),
		ln:          ln,
		pools:       make(map[Addr]*peerPool),
		serving:     make(map[net.Conn]struct{}),
		stop:        make(chan struct{}),
		DialTimeout: 5 * time.Second,
		poolSize:    defaultPoolSize,
		backoffBase: defaultBackoffBase,
		backoffMax:  defaultBackoffMax,
		idleTimeout: defaultIdleTimeout,
	}
	t.wg.Add(2)
	go t.acceptLoop()
	go t.janitor()
	return t, nil
}

// Addr returns the bound address.
func (t *TCPTransport) Addr() Addr { return t.addr }

// Serve installs the handler.
func (t *TCPTransport) Serve(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.serving[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveConn(conn)
			t.mu.Lock()
			delete(t.serving, conn)
			t.mu.Unlock()
		}()
	}
}

// serveReq is one decoded inbound request handed to a serve worker.
// Pooled: the read loop fills one per frame, the worker returns it.
type serveReq struct {
	tag   uint64
	trace uint64
	span  uint64
	from  Addr
	msg   Message
}

var serveReqPool = sync.Pool{New: func() any { return new(serveReq) }}

// serveState is the per-inbound-connection state shared by the read loop
// and its workers.
type serveState struct {
	t    *TCPTransport
	conn net.Conn
	wmu  sync.Mutex // serializes response writes
	m    *RPCMetrics

	// lastFrom caches the previous frame's sender so repeat senders on a
	// pipelined stream cost no string allocation.
	lastFrom Addr
}

// serveConn answers requests on one inbound connection until it closes.
// Workers are reused across requests: the read loop hands each request to
// an idle worker over an unbuffered channel and spawns a new one only
// when all are busy, so a steady stream of pipelined requests runs on a
// fixed goroutine set with no per-request spawn.
func (t *TCPTransport) serveConn(conn net.Conn) {
	defer conn.Close()
	st := &serveState{t: t, conn: conn, m: t.rpcMetrics()}
	work := make(chan *serveReq)
	done := make(chan struct{})
	var hwg sync.WaitGroup
	defer hwg.Wait()
	defer close(done)

	br := bufio.NewReaderSize(conn, 64<<10)
	var lenb [4]byte
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			return
		}
		n := int(wire.U32(lenb[:], 0))
		if n < frameHeaderLen-4 || n > maxFrame {
			return // corrupt stream; no way to resync
		}
		f := getFrame(n)
		if _, err := io.ReadFull(br, f.b); err != nil {
			return
		}
		st.m.wireRead(n + 4)
		h, err := parseFrame(f.b)
		if err != nil {
			return
		}
		msg, err := decodeMessage(h.typ, h.body)
		if err != nil {
			return
		}
		sr := serveReqPool.Get().(*serveReq)
		sr.tag, sr.trace, sr.span, sr.msg = h.tag, h.trace, h.span, msg
		// Alloc-free when the sender repeats (the common case: one client
		// per conn).
		if string(h.from) != string(st.lastFrom) {
			st.lastFrom = Addr(h.from)
		}
		sr.from = st.lastFrom
		if !borrows[h.typ] {
			putFrame(f) // decode copied everything out
		}
		select {
		case work <- sr: // an idle worker picks it up
		default:
			hwg.Add(1)
			go func(sr *serveReq) {
				defer hwg.Done()
				for {
					st.serveOne(sr)
					select {
					case sr = <-work:
					case <-done:
						return
					}
				}
			}(sr)
		}
	}
}

// serveOne runs the handler for one request and writes its response.
func (st *serveState) serveOne(sr *serveReq) {
	st.m.serveStart(sr.msg)
	st.t.mu.Lock()
	h := st.t.handler
	st.t.mu.Unlock()
	var resp Message
	if h == nil {
		resp = ToErrResp(fmt.Errorf("node not serving"))
	} else {
		// WithRemote returns ctx unchanged for untraced requests, so the
		// common path allocates no context.
		hctx := tracing.WithRemote(context.Background(), sr.trace, sr.span)
		r, herr := h(hctx, sr.from, sr.msg)
		switch {
		case herr != nil:
			resp = ToErrResp(herr)
		case r == nil:
			resp = ToErrResp(fmt.Errorf("nil response"))
		default:
			resp = r
		}
	}
	st.m.serveEnd()

	enc := getEncoder()
	err := enc.encode(sr.tag, 0, 0, st.t.addr, resp, false)
	if err != nil {
		// An unencodable response (typically one that overflows the frame
		// cap) must still answer the call: silently dropping the reply
		// leaves the client blocked on its tag forever. encode resets the
		// encoder at entry, so reusing it for the error reply is safe.
		err = enc.encode(sr.tag, 0, 0, st.t.addr, ToErrResp(err), false)
	}
	if err == nil {
		st.wmu.Lock()
		_, werr := enc.buffers().WriteTo(st.conn)
		st.wmu.Unlock()
		if werr != nil {
			// A half-written frame corrupts the stream for every pipelined
			// peer request; kill the connection.
			st.conn.Close()
		} else {
			st.m.wireWritten(enc.size())
		}
	}
	putEncoder(enc)
	// The wire no longer borrows anything: recycle the request struct
	// (unless the handler echoed it back) and any Acquire-built response.
	if resp != sr.msg {
		recycleMessage(sr.msg)
	}
	recycleResponse(resp)
	sr.msg = nil
	serveReqPool.Put(sr)
}

// clientConn is one pipelined outbound connection: a write-serialized
// binary frame stream out, a reader goroutine matching tagged responses
// to waiting callers. Its load (in-flight calls) steers the pool's
// least-loaded dispatch.
type clientConn struct {
	conn net.Conn
	m    *RPCMetrics

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan Message
	nextTag uint64
	err     error
	done    chan struct{}

	inflight int64 // guarded by mu; pool reads via load()
	lastUsed time.Time
}

func newClientConn(conn net.Conn, m *RPCMetrics) *clientConn {
	return &clientConn{
		conn:     conn,
		m:        m,
		pending:  make(map[uint64]chan Message),
		done:     make(chan struct{}),
		lastUsed: time.Now(),
	}
}

// fail records the terminal error, wakes every waiter, and closes the
// socket. Idempotent.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		close(cc.done)
	}
	cc.mu.Unlock()
	cc.conn.Close()
}

func (cc *clientConn) lastErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err
}

// load returns the in-flight call count (least-loaded dispatch).
func (cc *clientConn) load() int64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.inflight
}

// idleSince reports how long the conn has been idle (zero while loaded).
func (cc *clientConn) idleSince(now time.Time) time.Duration {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.inflight > 0 {
		return 0
	}
	return now.Sub(cc.lastUsed)
}

// forget drops a pending tag after a caller stops waiting (cancellation);
// a late response with that tag is discarded by the read loop.
func (cc *clientConn) forget(tag uint64) {
	cc.mu.Lock()
	delete(cc.pending, tag)
	cc.mu.Unlock()
}

// readLoop dispatches responses to waiting callers until the stream dies.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.conn, 64<<10)
	var lenb [4]byte
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			cc.fail(err)
			return
		}
		n := int(wire.U32(lenb[:], 0))
		if n < frameHeaderLen-4 || n > maxFrame {
			cc.fail(fmt.Errorf("transport: bad frame length %d", n))
			return
		}
		f := getFrame(n)
		if _, err := io.ReadFull(br, f.b); err != nil {
			cc.fail(err)
			return
		}
		cc.m.wireRead(n + 4)
		h, err := parseFrame(f.b)
		if err != nil {
			cc.fail(err)
			return
		}
		msg, err := decodeMessage(h.typ, h.body)
		if err != nil {
			cc.fail(err)
			return
		}
		if !borrows[h.typ] {
			putFrame(f)
		}
		cc.mu.Lock()
		ch := cc.pending[h.tag]
		delete(cc.pending, h.tag)
		cc.mu.Unlock()
		if ch != nil {
			ch <- msg // buffered: never blocks the loop
		}
	}
}

// call sends one tagged request and waits for its response or ctx.
func (cc *clientConn) call(ctx context.Context, from Addr, req Message) (Message, error) {
	ch := make(chan Message, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return nil, err
	}
	cc.nextTag++
	tag := cc.nextTag
	cc.pending[tag] = ch
	cc.inflight++
	cc.mu.Unlock()
	defer func() {
		cc.mu.Lock()
		cc.inflight--
		cc.lastUsed = time.Now()
		cc.mu.Unlock()
	}()

	trace, span := tracing.WireContext(ctx)
	enc := getEncoder()
	err := enc.encode(tag, trace, span, from, req, false)
	if err == nil {
		cc.wmu.Lock()
		if dl, ok := ctx.Deadline(); ok {
			_ = cc.conn.SetWriteDeadline(dl)
		} else {
			_ = cc.conn.SetWriteDeadline(time.Time{})
		}
		_, err = enc.buffers().WriteTo(cc.conn)
		cc.wmu.Unlock()
	}
	if err == nil {
		cc.m.wireWritten(enc.size())
	}
	putEncoder(enc)
	if err != nil {
		// A half-written frame corrupts the stream for everyone: kill the
		// connection.
		cc.fail(err)
		cc.forget(tag)
		return nil, err
	}

	select {
	case msg := <-ch:
		return msg, nil
	case <-ctx.Done():
		cc.forget(tag)
		return nil, ctx.Err()
	case <-cc.done:
		return nil, cc.lastErr()
	}
}

// Call sends the request over one of the destination pool's connections
// and waits for the tagged reply. A dead connection is dropped from the
// pool and the call retried once (all node RPCs are idempotent).
func (t *TCPTransport) Call(ctx context.Context, to Addr, req Message) (Message, error) {
	m := t.rpcMetrics()
	kind, start := m.startCall(req)
	sctx, sp := startSend(ctx, t.endpointTracer(), to, req)
	resp, err := t.doCall(sctx, to, req, m)
	finishSend(sp, err)
	m.finishCall(kind, start, resp, err)
	return resp, err
}

// doCall is Call's retry loop, without instrumentation.
func (t *TCPTransport) doCall(ctx context.Context, to Addr, req Message, m *RPCMetrics) (Message, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			m.retried()
		}
		p, err := t.pool(to)
		if err != nil {
			return nil, err
		}
		cc, err := p.get(ctx)
		if err != nil {
			return nil, err
		}
		resp, err := cc.call(ctx, t.addr, req)
		if err == nil {
			return AsError(resp)
		}
		if ctx.Err() != nil {
			return nil, err
		}
		p.drop(cc, err)
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, to, lastErr)
}

// pool returns the destination's connection pool, creating it if needed.
func (t *TCPTransport) pool(to Addr) (*peerPool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	p := t.pools[to]
	if p == nil {
		p = &peerPool{t: t, to: to}
		t.pools[to] = p
	}
	return p, nil
}

// janitor evicts idle pooled connections until the transport closes.
func (t *TCPTransport) janitor() {
	defer t.wg.Done()
	for {
		_, _, _, idle := t.poolConfig()
		wait := idle / 4
		if wait < 10*time.Millisecond {
			wait = 10 * time.Millisecond
		}
		if wait > 5*time.Second {
			wait = 5 * time.Second
		}
		select {
		case <-t.stop:
			return
		case <-time.After(wait):
		}
		t.mu.Lock()
		pools := make([]*peerPool, 0, len(t.pools))
		for _, p := range t.pools {
			pools = append(pools, p)
		}
		t.mu.Unlock()
		now := time.Now()
		for _, p := range pools {
			p.evictIdle(now, idle)
		}
	}
}

// Close shuts the listener and every connection.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	pools := t.pools
	t.pools = make(map[Addr]*peerPool)
	// Unblock in-flight serveConn reads so Close does not wait forever
	// on idle inbound connections.
	for c := range t.serving {
		c.Close()
	}
	t.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	err := t.ln.Close()
	t.wg.Wait()
	return err
}
