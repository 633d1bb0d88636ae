package transport

import (
	"bytes"
	"context"
	"testing"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/wire"
)

// drawsBack reports whether any of n fresh pool draws of size bytes
// returns the array behind b.
func drawsBack(b []byte, size, n int) bool {
	for i := 0; i < n; i++ {
		if &wire.Payload(size)[:1][0] == &b[:1][0] {
			return true
		}
	}
	return false
}

// TestUnownedResponseNeverReleasesPayloads: recycling a pooled response
// whose items share one slice — the echo-server shape, sixteen items over
// one block — returns the struct to its pool but never the block, which
// would otherwise enter the payload pool sixteen times.
func TestUnownedResponseNeverReleasesPayloads(t *testing.T) {
	block := wire.Payload(8 << 10) // a class-sized buffer the pool would accept
	mg := AcquireMultiGetResp()
	fr := AcquireFetchRangeResp()
	for i := 0; i < 16; i++ {
		item := BatchItem{Key: testKey(byte(i)), Found: true, Data: block}
		mg.Items = append(mg.Items, item)
		fr.Items = append(fr.Items, item)
	}
	g := AcquireGetResp()
	g.Found, g.Data = true, block
	recycleResponse(mg)
	recycleResponse(fr)
	recycleResponse(g)
	if drawsBack(block, len(block), 64) {
		t.Fatal("an unowned response's payload entered the pool")
	}
}

// TestOwnedResponseReleasesPayloads is the control: an owned response's
// distinct payloads go back to the pool, so the test above can see a
// release. (Under -race sync.Pool drops a quarter of its puts at random,
// so it checks for any reuse, not all.)
func TestOwnedResponseReleasesPayloads(t *testing.T) {
	resp := AcquireMultiGetResp()
	resp.OwnPayloads()
	bufs := make([][]byte, 16)
	for i := range bufs {
		bufs[i] = wire.Payload(8 << 10)
		resp.Items = append(resp.Items, BatchItem{Key: testKey(byte(i)), Found: true, Data: bufs[i]})
	}
	recycleResponse(resp)
	seen := map[*byte]bool{}
	for _, b := range bufs {
		seen[&b[0]] = true
	}
	reused := 0
	for i := 0; i < 64; i++ {
		if seen[&wire.Payload(8 << 10)[0]] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no owned payload came back from the pool")
	}
	if resp.pooled || resp.owned {
		t.Fatal("a recycled response kept its pooled/owned marks")
	}
}

// TestAcquiredResponsesStartClean: a response from the pool carries none
// of its previous use — not the owned mark, not a payload.
func TestAcquiredResponsesStartClean(t *testing.T) {
	g := AcquireGetResp()
	g.Found, g.Data, g.Redirect = true, wire.Payload(100), "x"
	g.OwnPayloads()
	recycleResponse(g)
	for i := 0; i < 4; i++ {
		if g := AcquireGetResp(); g.owned || g.Found || g.Data != nil || g.Redirect != "" {
			t.Fatalf("acquired GetResp not clean: %+v", g)
		}
	}
	m := AcquireMultiGetResp()
	m.OwnPayloads()
	recycleResponse(m)
	for i := 0; i < 4; i++ {
		if m := AcquireMultiGetResp(); m.owned || len(m.Items) != 0 {
			t.Fatalf("acquired MultiGetResp not clean: owned %v, %d items", m.owned, len(m.Items))
		}
	}
}

// multiGetServer answers every MultiGet with block for each key.
func multiGetServer(block []byte) Handler {
	return func(_ context.Context, _ Addr, m Message) (Message, error) {
		resp := &MultiGetResp{}
		for _, k := range m.(*MultiGetReq).Keys {
			resp.Items = append(resp.Items, BatchItem{Key: k, Found: true, Data: block})
		}
		return resp, nil
	}
}

// TestTCPReleaseRecyclesMultiGetFrame: a MultiGetResp the TCP client
// decoded holds its frame, and Release hands the frame back, so the next
// response is read into it. Without Release every response gets a fresh
// frame. (Under -race sync.Pool drops a quarter of its puts at random, so
// the test asks for some reuse, not all.)
func TestTCPReleaseRecyclesMultiGetFrame(t *testing.T) {
	const rounds = 16
	block := bytes.Repeat([]byte{0xAB}, 8<<10)
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Serve(multiGetServer(block))
	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ks := make([]keys.Key, 16)
	for i := range ks {
		ks[i] = testKey(byte(i))
	}
	frames := func(release bool) int {
		seen := map[*byte]bool{}
		for i := 0; i < rounds; i++ {
			resp, err := Expect[*MultiGetResp](cli.Call(context.Background(), srv.Addr(), &MultiGetReq{Keys: ks}))
			if err != nil {
				t.Fatal(err)
			}
			if resp.frame == nil {
				t.Fatal("a decoded MultiGetResp does not hold its frame")
			}
			for _, it := range resp.Items {
				if !bytes.Equal(it.Data, block) {
					t.Fatal("payload differs from the block served")
				}
			}
			seen[&resp.frame.b[0]] = true
			if release {
				Release(resp)
				Release(resp) // a second Release is a no-op
				if resp.frame != nil || len(resp.Items) != 0 {
					t.Fatal("a released response kept its frame or items")
				}
			}
		}
		return len(seen)
	}
	if n := frames(false); n != rounds {
		t.Fatalf("%d responses kept read into %d frames, want one each", rounds, n)
	}
	if n := frames(true); n > rounds*3/4 {
		t.Fatalf("%d released responses read into %d frames, want reuse", rounds, n)
	}
}

// TestMemReleaseIsNoOp: a mem-transport response is the struct the handler
// built, with no frame; Release leaves it and its payloads alone.
func TestMemReleaseIsNoOp(t *testing.T) {
	block := []byte("block")
	net := NewMemNetwork(0)
	srv, cli := net.NewEndpoint(), net.NewEndpoint()
	srv.Serve(multiGetServer(block))
	resp, err := Expect[*MultiGetResp](cli.Call(context.Background(), srv.Addr(), &MultiGetReq{Keys: []keys.Key{testKey(1)}}))
	if err != nil {
		t.Fatal(err)
	}
	Release(resp)
	if len(resp.Items) != 1 || !bytes.Equal(resp.Items[0].Data, block) {
		t.Fatalf("Release changed a mem response: %+v", resp.Items)
	}
}
