package node

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/store/disk"
	"github.com/defragdht/d2/internal/transport"
)

// settleBudget is how long after a Join, a §6 move or a restart returns
// every replica group may take to be right when only view changes run
// stabilization rounds.
const settleBudget = 100 * time.Millisecond

// eventConfig is testConfig with a stabilize timer that never fires in a
// test, so every round that runs was kicked by a view change.
func eventConfig(seed uint64) Config {
	cfg := testConfig(seed)
	cfg.StabilizeInterval = time.Hour
	return cfg
}

func stabilizeRounds(n *Node, cause string) uint64 {
	return n.Metrics().Counter(`d2_node_stabilize_rounds_total{cause="` + cause + `"}`).Value()
}

// waitSettledWithin fails the test unless every node's predecessor and
// first r−1 successors are the nodes around it within budget.
func waitSettledWithin(t *testing.T, nodes []*Node, budget time.Duration, after string) {
	t.Helper()
	t0 := time.Now()
	for !Settled(nodes, testConfig(0).Replicas) {
		if time.Since(t0) > budget {
			for _, nd := range nodes {
				pred, succs := nd.Neighbors()
				t.Logf("%s: pred %s succs %v", nd.Self().ID.Short(), pred.ID.Short(), succs)
			}
			t.Fatalf("%s: replica groups not settled within %v", after, budget)
		}
		time.Sleep(time.Millisecond)
	}
}

// joinEach starts the nodes of cfgs one at a time, each joining through
// the first, and checks the ring settles after every join.
func joinEach(t *testing.T, net *transport.MemNetwork, cfgs []Config) []*Node {
	t.Helper()
	var nodes []*Node
	for i, cfg := range cfgs {
		nd := Start(net.NewEndpoint(), cfg)
		nodes = append(nodes, nd)
		if i == 0 {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := nd.Join(ctx, nodes[0].Self().Addr)
		cancel()
		if err != nil {
			closeAll(t, nodes)
			t.Fatalf("join %d: %v", i, err)
		}
		waitSettledWithin(t, nodes, settleBudget, fmt.Sprintf("join %d", i))
	}
	return nodes
}

// TestRingSettlesByEventsAlone: with the stabilize timer out of the way,
// sequential joins, a §6 move and a restart at a persisted ID each leave
// every replica group right within settleBudget, from kicked rounds only.
func TestRingSettlesByEventsAlone(t *testing.T) {
	for _, size := range []int{2, 3} {
		t.Run(fmt.Sprintf("bootstrap=%d", size), func(t *testing.T) {
			cfgs := make([]Config, size)
			for i := range cfgs {
				cfgs[i] = eventConfig(uint64(i + 1))
			}
			nodes := joinEach(t, transport.NewMemNetwork(0), cfgs)
			defer closeAll(t, nodes)
			for _, nd := range nodes {
				if n := stabilizeRounds(nd, "timer"); n != 0 {
					t.Fatalf("%d timer rounds ran", n)
				}
			}
		})
	}

	t.Run("ring=16", func(t *testing.T) {
		const size, restarted = 16, 5
		net := transport.NewMemNetwork(0)
		dir := t.TempDir()
		openStore := func() *disk.Store {
			st, err := disk.Open(dir, disk.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		st := openStore()
		defer func() { st.Close() }()
		cfgs := make([]Config, size)
		for i := range cfgs {
			cfgs[i] = eventConfig(uint64(i + 1))
		}
		cfgs[restarted].Store = st
		nodes := joinEach(t, net, cfgs)
		defer func() { closeAll(t, nodes) }()
		ctx := context.Background()

		// §6 move: the node opposite a loaded node a rejoins as a's
		// predecessor at the median of a's range; the ripples at its new
		// and old positions do not meet.
		c := newClient(t, net, nodes)
		defer c.Close()
		a := nodes[1]
		lo := a.Predecessor().ID
		step := lo.Distance(a.Self().ID).Half().Half().Half()
		for i, k := 0, lo; i < 7; i++ {
			k = k.Add(step) // inside (lo, a)
			if err := c.Put(ctx, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		mover := opposite(nodes, a)
		moves := mover.metrics.balanceMoves.Value()
		mover.moveTo(ctx, a.Self())
		if mover.metrics.balanceMoves.Value() != moves+1 {
			t.Fatal("moveTo did not move")
		}
		waitSettledWithin(t, nodes, settleBudget, "move")

		// Restart at the persisted ID, on the old address, through a seed
		// that is no neighbour. The ring still names the old incarnation,
		// so the join lookup for our own ID ends on us.
		old := nodes[restarted]
		id, addr := old.Self().ID, old.Self().Addr
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = openStore()
		cfg := eventConfig(uint64(restarted + 1))
		cfg.Store = st
		nodes[restarted] = Start(net.NewEndpointAt(addr), cfg)
		if got := nodes[restarted].Self().ID; got != id {
			t.Fatalf("restarted at %s, want persisted %s", got.Short(), id.Short())
		}
		seed := opposite(nodes, nodes[restarted])
		seed.learnLink(nodes[restarted].Self())
		if err := nodes[restarted].Join(ctx, seed.Self().Addr); err != nil {
			t.Fatalf("rejoin: %v", err)
		}
		waitSettledWithin(t, nodes, settleBudget, "restart")

		var events uint64
		for _, nd := range nodes {
			if n := stabilizeRounds(nd, "timer"); n != 0 {
				t.Fatalf("%d timer rounds ran", n)
			}
			events += stabilizeRounds(nd, "event")
		}
		t.Logf("%d event rounds in all", events)
	})
}

// opposite returns the node half the ring away from x, in ID order: far
// enough that neither the change at x nor the ripple it starts reaches
// that node's neighbours.
func opposite(nodes []*Node, x *Node) *Node {
	sorted := slices.Clone(nodes)
	slices.SortFunc(sorted, func(a, b *Node) int { return a.Self().ID.Compare(b.Self().ID) })
	i := slices.Index(sorted, x)
	return sorted[(i+len(sorted)/2)%len(sorted)]
}

// TestSettledRingRunsNoEventRounds: once every successor list is full and
// right, and each node has announced its last change, timer rounds change
// nothing, so none of them kicks another round.
func TestSettledRingRunsNoEventRounds(t *testing.T) {
	nodes := startRing(t, transport.NewMemNetwork(0), 6, nil)
	defer closeAll(t, nodes)
	listLen := max(testConfig(0).Replicas, 4)
	for deadline := time.Now().Add(5 * time.Second); !Settled(nodes, listLen+1); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("successor lists never filled")
		}
	}
	count := func(cause string) []uint64 {
		out := make([]uint64, len(nodes))
		for i, nd := range nodes {
			out[i] = stabilizeRounds(nd, cause)
		}
		return out
	}
	// waitTimerRounds returns once every node has run k more timer rounds.
	waitTimerRounds := func(k uint64) {
		t.Helper()
		from := count("timer")
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(testConfig(0).StabilizeInterval) {
			done := true
			for i, n := range count("timer") {
				done = done && n >= from[i]+k
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("timer rounds did not run")
			}
		}
	}
	// A list a node took from a notify is announced by its next round.
	waitTimerRounds(2)
	event0 := count("event")
	waitTimerRounds(20)
	for i, n := range count("event") {
		if n != event0[i] {
			t.Fatalf("node %d ran %d event rounds on a settled ring", i, n-event0[i])
		}
	}
}

// TestSuccessorNotifyIsNoPredecessor: a node whose predecessor is gone
// (it moved away, §6) and whose successor notifies it because its list
// changed does not take that successor as predecessor — the node's own
// list names nodes between the two — so it does not claim nearly the
// whole ring until the true predecessor notifies it.
func TestSuccessorNotifyIsNoPredecessor(t *testing.T) {
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = eventConfig(uint64(i + 1))
	}
	nodes := joinEach(t, transport.NewMemNetwork(0), cfgs)
	defer closeAll(t, nodes)
	x := nodes[0]
	pred := x.Predecessor()
	x.mu.Lock()
	x.pred = transport.PeerInfo{}
	x.mu.Unlock()
	x.handleNotify(x.Successor())
	if got := x.Predecessor(); !got.IsZero() {
		t.Fatalf("took its successor %s as predecessor", got.ID.Short())
	}
	x.handleNotify(pred)
	if got := x.Predecessor(); got != pred {
		t.Fatalf("predecessor %s after the true one notified, want %s", got.ID.Short(), pred.ID.Short())
	}
}
