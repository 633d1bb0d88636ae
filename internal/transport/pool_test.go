package transport

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/obs"
)

func servePing(t *TCPTransport) {
	t.Serve(func(context.Context, Addr, Message) (Message, error) {
		return &PingResp{}, nil
	})
}

// TestPoolReconnectAfterPeerRestart kills a peer's listener, checks that
// calls fail fast during the backoff window instead of queueing on the
// dialer, restarts the peer on the same address, and checks that calls
// succeed again once the backoff expires.
func TestPoolReconnectAfterPeerRestart(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	servePing(srv)
	addr := srv.Addr()

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	reg := obs.New()
	m := NewRPCMetrics(reg)
	cli.UseMetrics(m)
	const backoffBase = 400 * time.Millisecond
	cli.poolSize, cli.backoffBase, cli.backoffMax = 2, backoffBase, backoffBase

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := Expect[*PingResp](cli.Call(ctx, addr, &PingReq{})); err != nil {
		t.Fatalf("call before kill: %v", err)
	}

	// Kill the peer. The pooled connection dies; the next call redials,
	// gets connection-refused, and opens the backoff window.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(ctx, addr, &PingReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to dead peer: %v, want ErrUnreachable", err)
	}

	// Inside the window calls must be refused immediately — no dial.
	dialsBefore := m.dials.Value()
	start := time.Now()
	_, err = cli.Call(ctx, addr, &PingReq{})
	if !errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), "backoff") {
		t.Fatalf("call during backoff: %v, want fail-fast ErrUnreachable", err)
	}
	if el := time.Since(start); el > backoffBase/2 {
		t.Fatalf("fail-fast call took %v", el)
	}
	if d := m.dials.Value(); d != dialsBefore {
		t.Fatalf("fail-fast call dialed anyway (%d -> %d)", dialsBefore, d)
	}
	if m.failfast.Value() == 0 {
		t.Fatal("failfast counter not incremented")
	}

	// Restart the peer on the same address and wait out the backoff; the
	// pool must dial fresh and succeed.
	var srv2 *TCPTransport
	for i := 0; ; i++ {
		srv2, err = ListenTCP(string(addr))
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer srv2.Close()
	servePing(srv2)

	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err = Expect[*PingResp](cli.Call(ctx, addr, &PingReq{})); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after peer restart: %v", err)
		}
		time.Sleep(backoffBase / 4)
	}
}

// TestPoolKillMidBatch kills the peer while a batch of calls is blocked
// in its handlers; every caller must get an error promptly rather than
// hanging on the dead connections.
func TestPoolKillMidBatch(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var arrived atomic.Int64
	srv.Serve(func(context.Context, Addr, Message) (Message, error) {
		arrived.Add(1)
		<-release
		return &PingResp{}, nil
	})

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const calls = 16
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make(chan error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cli.Call(ctx, srv.Addr(), &PingReq{})
			errs <- err
		}()
	}
	for arrived.Load() < calls {
		if ctx.Err() != nil {
			t.Fatalf("only %d/%d calls arrived", arrived.Load(), calls)
		}
		time.Sleep(time.Millisecond)
	}

	// Close the server concurrently (Close waits for the stuck handlers,
	// which release only after the clients have seen their errors).
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Error("call survived peer death")
		} else if errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("call hung until deadline: %v", err)
		}
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close did not return")
	}
}

// TestPoolGrowsUnderLoad checks least-loaded dispatch's other half: when
// every stream is busy the pool dials extra connections up to its size.
func TestPoolGrowsUnderLoad(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := make(chan struct{})
	srv.Serve(func(context.Context, Addr, Message) (Message, error) {
		<-release
		return &PingResp{}, nil
	})

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const size = 3
	cli.poolSize = size

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli.Call(ctx, srv.Addr(), &PingReq{})
		}()
	}
	defer wg.Wait()
	defer close(release) // unblock handlers first, then join the callers

	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		inbound := len(srv.serving)
		srv.mu.Unlock()
		if inbound > 1 {
			if inbound > size {
				t.Fatalf("pool grew past its size: %d conns", inbound)
			}
			return // grew beyond a single stream, capped at size
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never grew under load")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolEvictsIdle checks the janitor: connections idle past the
// configured timeout are closed (and counted), and the next call simply
// redials.
func TestPoolEvictsIdle(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	servePing(srv)

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	m := NewRPCMetrics(obs.New())
	cli.UseMetrics(m)
	cli.poolSize = 2
	cli.mu.Lock()
	cli.idleTimeout = 50 * time.Millisecond
	cli.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := Expect[*PingResp](cli.Call(ctx, srv.Addr(), &PingReq{})); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for m.evictions.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g := m.poolConns.Value(); g != 0 {
		t.Fatalf("pool gauge = %d after eviction, want 0", g)
	}

	if _, err := Expect[*PingResp](cli.Call(ctx, srv.Addr(), &PingReq{})); err != nil {
		t.Fatalf("call after eviction: %v", err)
	}
}
