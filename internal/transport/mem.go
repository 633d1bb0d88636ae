package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/obs/tracing"
)

// MemNetwork is an in-process network: endpoints exchange messages by
// direct handler invocation, optionally with injected latency. It runs
// thousands of nodes in one process for deployment-scale tests.
type MemNetwork struct {
	mu      sync.RWMutex
	eps     map[Addr]*MemTransport
	nextID  int
	latency time.Duration
	// metrics, when set, instruments every endpoint on the network (the
	// in-process cluster is observed as one unit; per-node metrics come
	// from the node layer's own registries).
	metrics *RPCMetrics
}

// NewMemNetwork creates an empty in-memory network. latency, if non-zero,
// is the simulated one-way delay applied to every call.
func NewMemNetwork(latency time.Duration) *MemNetwork {
	return &MemNetwork{eps: make(map[Addr]*MemTransport), latency: latency}
}

// UseMetrics attaches RPC metrics to the network; all endpoints (existing
// and future) report through it.
func (n *MemNetwork) UseMetrics(m *RPCMetrics) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics = m
}

// rpcMetrics returns the network's metrics (nil when off).
func (n *MemNetwork) rpcMetrics() *RPCMetrics {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.metrics
}

// NewEndpoint creates a fresh endpoint with a unique address.
func (n *MemNetwork) NewEndpoint() *MemTransport {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextID++
	addr := Addr(fmt.Sprintf("mem://n%d", n.nextID))
	ep := &MemTransport{net: n, addr: addr}
	n.eps[addr] = ep
	return ep
}

// NewEndpointAt creates an endpoint bound to a specific address,
// replacing any prior registration — the mem-network equivalent of a
// restarted process rebinding its old port. Durable-restart tests need
// the new incarnation reachable at the address the ring remembers.
func (n *MemNetwork) NewEndpointAt(addr Addr) *MemTransport {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &MemTransport{net: n, addr: addr}
	n.eps[addr] = ep
	return ep
}

// lookupEndpoint finds a live endpoint.
func (n *MemNetwork) lookupEndpoint(a Addr) (*MemTransport, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.eps[a]
	return ep, ok
}

// remove deletes a closed endpoint.
func (n *MemNetwork) remove(a Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.eps, a)
}

// MemTransport is one in-memory endpoint. A handler's response goes to
// the caller as the very struct the handler built, so nothing here
// recycles it: a pooled response, and any payloads it owns, simply become
// the caller's (a pool miss later is an allocation, nothing worse).
type MemTransport struct {
	net  *MemNetwork
	addr Addr

	mu      sync.RWMutex
	handler Handler
	tracer  *tracing.Tracer
	closed  bool
}

var _ Transport = (*MemTransport)(nil)

// Addr returns the endpoint address.
func (t *MemTransport) Addr() Addr { return t.addr }

// Serve installs the handler.
func (t *MemTransport) Serve(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// UseTracer attaches a request tracer to this endpoint: outbound calls
// that belong to a sampled trace record an rpc.<kind> send span.
func (t *MemTransport) UseTracer(tr *tracing.Tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracer = tr
}

// endpointTracer returns the endpoint's tracer (nil when off).
func (t *MemTransport) endpointTracer() *tracing.Tracer {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tracer
}

// Call invokes the destination's handler synchronously (plus the
// configured latency on each direction). Context cancellation is honored
// at every step the transport controls: before dispatch, during injected
// latency, and after the handler returns — so a batched fan-out that
// cancels its context stops promptly instead of draining every call.
func (t *MemTransport) Call(ctx context.Context, to Addr, req Message) (Message, error) {
	m := t.net.rpcMetrics()
	kind, start := m.startCall(req)
	sctx, sp := startSend(ctx, t.endpointTracer(), to, req)
	resp, err := t.call(sctx, to, req, m)
	finishSend(sp, err)
	m.finishCall(kind, start, resp, err)
	return resp, err
}

// call is the uninstrumented dispatch path.
func (t *MemTransport) call(ctx context.Context, to Addr, req Message, m *RPCMetrics) (Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.mu.RLock()
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	dst, ok := t.net.lookupEndpoint(to)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	dst.mu.RLock()
	h := dst.handler
	dstClosed := dst.closed
	dst.mu.RUnlock()
	if dstClosed || h == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	if t.net.latency > 0 {
		select {
		case <-time.After(t.net.latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m.serveStart(req)
	// The handler runs under a background-derived context carrying only
	// the caller's trace position — exactly what the TCP envelope would
	// deliver, so mem and TCP handlers behave identically.
	resp, err := h(tracing.HandlerContext(ctx), t.addr, req)
	m.serveEnd()
	if err != nil {
		return nil, err
	}
	if t.net.latency > 0 {
		select {
		case <-time.After(t.net.latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

// Close removes the endpoint from the network; subsequent calls to it
// fail with ErrUnreachable.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.net.remove(t.addr)
	return nil
}
