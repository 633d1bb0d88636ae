package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPPipelinesOnOneConnection proves the multiplexing claim: many
// concurrent calls from one client reach the server simultaneously over a
// single TCP connection, and out-of-order responses are matched back to
// the right callers by tag.
func TestTCPPipelinesOnOneConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const calls = 16
	var inflight, peak atomic.Int64
	release := make(chan struct{})
	arrived := make(chan struct{}, calls)
	srv.Serve(func(_ context.Context, from Addr, req Message) (Message, error) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		arrived <- struct{}{}
		<-release // hold every request open until all have arrived
		return &PutResp{}, nil
	})

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Pin the peer pool to one stream so every call shares a single
	// connection — the point under test is pipelining, not pooling.
	cli.poolSize = 1

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Expect[*PutResp](cli.Call(ctx, srv.Addr(), &PutReq{})); err != nil {
				errs <- err
			}
		}()
	}

	// All calls must arrive while every earlier one is still unanswered —
	// impossible without pipelining on a request-per-response stream.
	for i := 0; i < calls; i++ {
		select {
		case <-arrived:
		case <-ctx.Done():
			t.Fatalf("only %d/%d calls in flight: requests serialized", i, calls)
		}
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if p := peak.Load(); p != calls {
		t.Fatalf("peak concurrent handlers %d, want %d", p, calls)
	}
	srv.mu.Lock()
	inbound := len(srv.serving)
	srv.mu.Unlock()
	if inbound != 1 {
		t.Fatalf("server saw %d inbound connections, want 1 multiplexed", inbound)
	}
}

// TestTCPConcurrentMixedSizes hammers one connection with concurrent calls
// of wildly different payload sizes; run under -race it checks the shared
// encoder/decoder and pending-tag bookkeeping.
func TestTCPConcurrentMixedSizes(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Serve(func(_ context.Context, from Addr, req Message) (Message, error) {
		p := req.(*PutReq)
		return &GetResp{Found: true, Data: p.Data}, nil
	})

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sizes := []int{0, 1, 17, 1 << 10, 64 << 10, 512 << 10}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				size := sizes[(g+i)%len(sizes)]
				data := bytes.Repeat([]byte{byte(g*16 + i)}, size)
				resp, err := Expect[*GetResp](cli.Call(ctx, srv.Addr(), &PutReq{Data: data}))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Data, data) {
					errs <- fmt.Errorf("goroutine %d call %d: echo mismatch (%d bytes)", g, i, size)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTCPCancelLeavesConnectionUsable checks that abandoning one call via
// ctx does not poison the multiplexed connection for the others.
func TestTCPCancelLeavesConnectionUsable(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	block := make(chan struct{})
	srv.Serve(func(_ context.Context, from Addr, req Message) (Message, error) {
		if r, ok := req.(*PutReq); ok && r.TTL == 1 {
			<-block
		}
		return &PutResp{}, nil
	})

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	slowCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cli.Call(slowCtx, srv.Addr(), &PutReq{TTL: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call: got %v, want deadline exceeded", err)
	}
	close(block)

	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := Expect[*PutResp](cli.Call(ctx, srv.Addr(), &PutReq{})); err != nil {
		t.Fatalf("call after cancelled call: %v", err)
	}
}

// TestMemCallHonorsContext checks both mem-transport cancellation points:
// an already-cancelled context fails before the handler runs, and
// cancellation during injected latency cuts the call short.
func TestMemCallHonorsContext(t *testing.T) {
	net := NewMemNetwork(0)
	a, b := net.NewEndpoint(), net.NewEndpoint()
	var handled atomic.Int64
	b.Serve(func(_ context.Context, from Addr, req Message) (Message, error) {
		handled.Add(1)
		return &PingResp{}, nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Call(ctx, b.Addr(), &PingReq{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled call: got %v, want context.Canceled", err)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times on a cancelled call", n)
	}

	slow := NewMemNetwork(time.Hour)
	c, d := slow.NewEndpoint(), slow.NewEndpoint()
	d.Serve(func(_ context.Context, from Addr, req Message) (Message, error) { return &PingResp{}, nil })
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	start := time.Now()
	if _, err := c.Call(ctx2, d.Addr(), &PingReq{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("latency call: got %v, want deadline exceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation during latency took %v", el)
	}
}
