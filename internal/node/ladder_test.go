package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/transport"
)

// TestMissingKeysCostOneLadder pins what reporting a hole costs: keys that
// were never stored go through one read ladder — its rounds and sleeps
// spent once per batch — not through a per-key ladder inside a batch
// ladder inside a segment ladder.
func TestMissingKeysCostOneLadder(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 4, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()
	ctx := context.Background()

	holes := make([]keys.Key, 16)
	for i := range holes {
		holes[i] = keys.HashString(fmt.Sprintf("never-stored-%02d", i))
	}
	measure := func(read func() (int, error)) (found int, err error, took time.Duration, rpcs uint64) {
		start, before := time.Now(), c.RPCs()
		found, err = read()
		return found, err, time.Since(start), c.RPCs() - before
	}
	batch := func(read func(context.Context, []keys.Key) (map[keys.Key][]byte, error)) func() (int, error) {
		return func() (int, error) {
			got, err := read(ctx, holes)
			return len(got), err
		}
	}

	found, err, took, rpcs := measure(batch(c.GetSegment))
	t.Logf("GetSegment over 16 holes: %v, %d RPCs", took, rpcs)
	if err != nil || found != 0 {
		t.Fatalf("GetSegment over holes = %d blocks, %v; want an empty result and no error", found, err)
	}
	if took >= 4*time.Second || rpcs >= 400 {
		t.Errorf("GetSegment over 16 holes took %v and %d RPCs, want < 4 s and < 400", took, rpcs)
	}

	found, err, took, rpcs = measure(batch(c.GetMany))
	t.Logf("GetMany over 16 holes: %v, %d RPCs", took, rpcs)
	if err != nil || found != 0 {
		t.Fatalf("GetMany over holes = %d blocks, %v; want an empty result and no error", found, err)
	}
	if took >= time.Second {
		t.Errorf("GetMany over 16 holes took %v, want < 1 s", took)
	}

	_, err, took, rpcs = measure(func() (int, error) {
		_, err := c.Get(ctx, holes[0])
		return 0, err
	})
	t.Logf("Get of one hole: %v, %d RPCs", took, rpcs)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a missing key = %v, want ErrNotFound", err)
	}
	// Two back-off rounds of 100 and 200 ms, each jittered by half.
	if took < getRetryBackoff*3/2 || took >= time.Second || rpcs > 25 {
		t.Errorf("Get of a missing key took %v and %d RPCs, want its two back-off rounds (~0.3 s) and <= 25", took, rpcs)
	}
}

// TestEveryOpSurvivesDeadCachedOwner: with the lookup cache naming a dead
// node as the owner, every client operation succeeds through the
// re-resolve path and leaves the stale range out of the cache (§5: a stale
// entry costs latency, never correctness).
func TestEveryOpSurvivesDeadCachedOwner(t *testing.T) {
	for _, rn := range ringNets() {
		t.Run(rn.name, func(t *testing.T) {
			nodes := startSpacedRing(t, rn, 5, nil)
			defer func() { closeAll(t, nodes) }()
			c := clientOn(t, rn, nodes)
			defer c.Close()
			ctx := context.Background()

			// A file's run of keys on one owner, stored and replicated.
			base := keys.Key{0x42}
			stored := make([]keys.Key, 8)
			for b := range stored {
				stored[b] = base.WithBlock(uint64(b + 1))
				if err := c.Put(ctx, stored[b], blockPayload(b)); err != nil {
					t.Fatal(err)
				}
			}
			dead, err := c.Lookup(ctx, stored[0])
			if err != nil {
				t.Fatal(err)
			}
			var pred transport.PeerInfo
			var rest []*Node
			for i, nd := range nodes {
				if nd.Self().Addr != dead.Addr {
					rest = append(rest, nd)
					continue
				}
				pred = nodes[(i+len(nodes)-1)%len(nodes)].Self()
				for _, k := range stored {
					if addrs, _ := holders(nodes, k, nil); len(addrs) != 3 {
						t.Fatalf("key %s on %d nodes before the kill, want 3", k.Short(), len(addrs))
					}
				}
				if err := nd.Close(); err != nil {
					t.Fatal(err)
				}
			}
			nodes = rest
			waitConverged(t, nodes, 10*time.Second)

			fresh := []keys.Key{base.WithBlock(101), base.WithBlock(102), base.WithBlock(103)}
			freshData := [][]byte{[]byte("p1"), []byte("p2"), []byte("p3")}
			wantAll := func(got map[keys.Key][]byte, err error) error {
				for b, k := range stored {
					if err == nil && !bytes.Equal(got[k], blockPayload(b)) {
						err = fmt.Errorf("block %d = %q", b, got[k])
					}
				}
				return err
			}
			ops := []struct {
				name string
				key  keys.Key // must resolve past the dead owner afterwards
				run  func() error
			}{
				{"Put", base.WithBlock(100), func() error {
					if err := c.Put(ctx, base.WithBlock(100), []byte("put")); err != nil {
						return err
					}
					got, err := c.Get(ctx, base.WithBlock(100))
					if err == nil && string(got) != "put" {
						err = fmt.Errorf("read back %q", got)
					}
					return err
				}},
				{"Get", stored[0], func() error {
					got, err := c.Get(ctx, stored[0])
					if err == nil && !bytes.Equal(got, blockPayload(0)) {
						err = fmt.Errorf("got %q", got)
					}
					return err
				}},
				{"GetMany", stored[0], func() error { return wantAll(c.GetMany(ctx, stored)) }},
				{"GetSegment", stored[0], func() error { return wantAll(c.GetSegment(ctx, stored)) }},
				{"ReadSegment", stored[0], func() error {
					got := map[keys.Key][]byte{}
					err := c.ReadSegment(ctx, stored, func(k keys.Key, d []byte) { got[k] = bytes.Clone(d) })
					return wantAll(got, err)
				}},
				{"PutMany", fresh[0], func() error {
					if err := c.PutMany(ctx, fresh, freshData); err != nil {
						return err
					}
					got, err := c.GetMany(ctx, fresh)
					if err == nil && len(got) != len(fresh) {
						err = fmt.Errorf("read back %d of %d blocks", len(got), len(fresh))
					}
					return err
				}},
				{"ReadRange", base.Next(), func() error {
					entries, err := c.ReadRange(ctx, base, base.WithBlock(uint64(len(stored))))
					if err == nil && len(entries) != len(stored) {
						err = fmt.Errorf("%d entries, want %d", len(entries), len(stored))
					}
					for b := range entries {
						if err == nil && !bytes.Equal(entries[b].Data, blockPayload(b)) {
							err = fmt.Errorf("entry %d = %q", b, entries[b].Data)
						}
					}
					return err
				}},
				{"Remove", stored[7], func() error { return c.Remove(ctx, stored[7]) }},
			}
			for _, op := range ops {
				// The cache as it was before the kill: the dead node owns
				// the run's range.
				c.mu.Lock()
				c.cache.Insert(pred.ID, dead.ID, dead, c.now())
				c.mu.Unlock()
				_, resolved := c.Stats()
				if err := op.run(); err != nil {
					t.Errorf("%s through a dead cached owner: %v", op.name, err)
				}
				if _, now := c.Stats(); now == resolved {
					t.Errorf("%s did not re-resolve the owner", op.name)
				}
				c.mu.Lock()
				owner, cached := c.cache.Lookup(op.key, c.now())
				c.mu.Unlock()
				if cached && owner.Addr == dead.Addr {
					t.Errorf("%s left the dead owner's range in the lookup cache", op.name)
				}
			}
		})
	}
}
