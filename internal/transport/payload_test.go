package transport

import (
	"testing"

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
