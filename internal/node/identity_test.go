package node

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// failingIdentityStore is an in-memory engine whose identity saves fail.
type failingIdentityStore struct{ *store.Store }

func (failingIdentityStore) LoadIdentity() (keys.Key, bool) { return keys.Key{}, false }
func (failingIdentityStore) SaveIdentity(keys.Key) error    { return errors.New("injected save failure") }

func identitySaveErrors(n *Node) uint64 {
	return n.Metrics().Snapshot().Counters["d2_node_identity_save_errors_total"]
}

func identitySaveEvents(n *Node) []obs.Event {
	var out []obs.Event
	for _, e := range n.Events().Events() {
		if e.Name == "identity.save_error" {
			out = append(out, e)
		}
	}
	return out
}

// TestIdentitySaveErrorsAreCounted: a ring-ID save the engine refuses —
// at start and after a balance move — is counted and logged with the ID.
func TestIdentitySaveErrorsAreCounted(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 4, func(i int, c *Config) {
		c.Store = failingIdentityStore{store.New()}
		c.Events = obs.NewEventLog(256)
		c.BalanceInterval = 50 * time.Millisecond
		c.PointerStabilization = 100 * time.Millisecond
	})
	defer closeAll(t, nodes)
	for i, n := range nodes {
		if got := identitySaveErrors(n); got != 1 {
			t.Fatalf("node %d: %d identity save errors after start, want 1", i, got)
		}
		evs := identitySaveEvents(n)
		if len(evs) != 1 || evs[0].Level != obs.LevelWarn || !strings.HasPrefix(evs[0].Fields, "id="+n.Self().ID.Short()+" ") {
			t.Fatalf("node %d: identity.save_error events %+v, want one warning naming %s", i, evs, n.Self().ID.Short())
		}
	}

	// A hot arc makes a light node move; its new ID's save fails too.
	c := newClient(t, net, nodes)
	defer c.Close()
	ctx := context.Background()
	k := keys.HashString("hot")
	for i := 0; i < 200; i++ {
		k = k.Next()
		if err := c.Put(ctx, k, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, n := range nodes {
			if n.metrics.balanceMoves.Value() == 0 {
				continue
			}
			if got := identitySaveErrors(n); got < 2 {
				t.Fatalf("moved node: %d identity save errors, want ≥ 2 (start + move)", got)
			}
			evs := identitySaveEvents(n)
			if last := evs[len(evs)-1]; last.Fields == evs[0].Fields {
				t.Fatalf("moved node: last identity.save_error %q names the start ID", last.Fields)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no balance move within 15s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
