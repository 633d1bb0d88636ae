package transport

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// peerPool owns the outbound connections to one destination: up to
// poolSize pipelined streams with least-loaded dispatch. Dials are
// single-flight; after a failed dial the pool fails calls fast for a
// jittered exponential backoff window instead of letting every caller
// queue on the dialer, and a transport-wide janitor evicts streams that
// sit idle. Health is implicit: a stream that dies is pruned on its next
// selection (or by drop), and the next call redials.
type peerPool struct {
	t  *TCPTransport
	to Addr

	mu       sync.Mutex
	conns    []*clientConn
	dialing  chan struct{} // non-nil while one dial is in flight
	failures int           // consecutive dial failures
	nextTry  time.Time     // end of the current backoff window
}

// get returns a live connection for one call, dialing if the pool is
// empty. During a backoff window with no live connections it fails fast.
func (p *peerPool) get(ctx context.Context) (*clientConn, error) {
	for {
		p.mu.Lock()
		p.pruneLocked()
		if len(p.conns) > 0 {
			cc := p.leastLoadedLocked()
			// Grow the pool in the background when every stream is busy
			// and there is room — the current call proceeds on cc.
			if cc.load() > 0 && len(p.conns) < p.t.poolSize && p.dialing == nil {
				ch := make(chan struct{})
				p.dialing = ch
				go func() {
					_, err := p.dialOne(context.Background())
					p.dialDone(err, ch)
				}()
			}
			p.mu.Unlock()
			return cc, nil
		}
		if ch := p.dialing; ch != nil {
			p.mu.Unlock()
			select {
			case <-ch:
				continue // dial settled; re-evaluate
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if now := time.Now(); now.Before(p.nextTry) {
			p.mu.Unlock()
			p.t.rpcMetrics().failedFast()
			return nil, fmt.Errorf("%w: %s: in dial backoff", ErrUnreachable, p.to)
		}
		ch := make(chan struct{})
		p.dialing = ch
		p.mu.Unlock()
		cc, err := p.dialOne(ctx)
		p.dialDone(err, ch)
		if err != nil {
			return nil, err
		}
		return cc, nil
	}
}

// pruneLocked drops dead connections. Callers hold p.mu.
func (p *peerPool) pruneLocked() {
	live := p.conns[:0]
	for _, cc := range p.conns {
		if cc.lastErr() == nil {
			live = append(live, cc)
		} else {
			p.t.rpcMetrics().connRemoved()
		}
	}
	p.conns = live
}

// leastLoadedLocked picks the stream with the fewest in-flight calls.
// Callers hold p.mu and guarantee the pool is non-empty.
func (p *peerPool) leastLoadedLocked() *clientConn {
	best := p.conns[0]
	min := best.load()
	for _, cc := range p.conns[1:] {
		if l := cc.load(); l < min {
			best, min = cc, l
		}
	}
	return best
}

// dialOne establishes and registers one connection.
func (p *peerPool) dialOne(ctx context.Context) (*clientConn, error) {
	m := p.t.rpcMetrics()
	m.dialed()
	d := net.Dialer{Timeout: p.t.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", string(p.to))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, p.to, err)
	}
	cc := newClientConn(conn, m)

	p.t.mu.Lock()
	if p.t.closed {
		p.t.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	p.t.wg.Add(1)
	p.t.mu.Unlock()
	p.mu.Lock()
	p.conns = append(p.conns, cc)
	p.mu.Unlock()
	m.connAdded()
	go func() {
		defer p.t.wg.Done()
		cc.readLoop()
		p.remove(cc)
	}()
	return cc, nil
}

// dialDone settles the single-flight marker and the backoff state.
func (p *peerPool) dialDone(err error, ch chan struct{}) {
	p.mu.Lock()
	if p.dialing == ch {
		p.dialing = nil
	}
	if err != nil {
		p.failures++
		p.nextTry = time.Now().Add(p.backoff())
	} else {
		p.failures = 0
		p.nextTry = time.Time{}
	}
	p.mu.Unlock()
	close(ch)
}

// backoff returns the jittered exponential delay for the current failure
// count. Callers hold p.mu.
func (p *peerPool) backoff() time.Duration {
	d := p.t.backoffBase << (p.failures - 1)
	if d <= 0 || d > p.t.backoffMax {
		d = p.t.backoffMax
	}
	// Jitter into [d/2, d) so a burst of callers against a dead peer does
	// not re-dial in lockstep.
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// drop discards a connection after a call-level failure so the next call
// does not reuse the dead stream.
func (p *peerPool) drop(cc *clientConn, err error) {
	cc.fail(err)
	p.remove(cc)
}

// remove takes a connection out of the pool (idempotent) and kills it.
func (p *peerPool) remove(cc *clientConn) {
	p.mu.Lock()
	for i, c := range p.conns {
		if c == cc {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			p.t.rpcMetrics().connRemoved()
			break
		}
	}
	p.mu.Unlock()
	cc.fail(ErrClosed)
}

// evictIdle closes connections idle longer than the configured timeout.
func (p *peerPool) evictIdle(now time.Time, idle time.Duration) {
	p.mu.Lock()
	var evict []*clientConn
	live := p.conns[:0]
	for _, cc := range p.conns {
		if cc.lastErr() == nil && cc.idleSince(now) > idle {
			evict = append(evict, cc)
		} else {
			live = append(live, cc)
		}
	}
	p.conns = live
	p.mu.Unlock()
	m := p.t.rpcMetrics()
	for _, cc := range evict {
		cc.fail(ErrClosed)
		m.connRemoved()
		m.evicted()
	}
}

// close kills every connection (transport shutdown).
func (p *peerPool) close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	m := p.t.rpcMetrics()
	for _, cc := range conns {
		cc.fail(ErrClosed)
		m.connRemoved()
	}
}
