package simdht

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/node"
	"github.com/defragdht/d2/internal/ring"
	"github.com/defragdht/d2/internal/sim"
	"github.com/defragdht/d2/internal/stats"
	"github.com/defragdht/d2/internal/transport"
)

// The differential test drives one seeded schedule through the simulator
// and through a ring of real nodes placed at the simulator's IDs: write K
// keys, crash one node, let repair run to quiescence, restart that node at
// its ID, and quiesce again. At every quiescent point the §8 holder set of
// every key, the §6 split point of every node and the normalized std-dev
// of held bytes must agree between the two, and the holder sets must equal
// ring's replica group.
const (
	diffSeeds    = 20
	diffNodes    = 8
	diffKeys     = 48
	diffReplicas = 3
)

func TestDifferentialLiveRing(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live rings in -short mode")
	}
	// The schedules mostly wait on timers, so every seed runs at once
	// rather than under t.Parallel's per-CPU limit.
	var wg sync.WaitGroup
	for seed := uint64(1); seed <= diffSeeds; seed++ {
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				d := newDifferential(t, seed)
				defer d.close()
				d.writeKeys()
				d.checkpoint("after writes")
				victim := d.rng.IntN(diffNodes)
				d.crash(victim)
				d.checkpoint(fmt.Sprintf("after crashing node %d", victim))
				d.restart(victim)
				d.checkpoint(fmt.Sprintf("after restarting node %d", victim))
			})
		}()
	}
	wg.Wait()
}

// differential holds both models of one schedule: the simulator's cluster
// and a live ring whose node i sits at the simulator's node i's ID.
type differential struct {
	t    *testing.T
	seed uint64
	rng  *rand.Rand

	eng  *sim.Engine
	sim  *Cluster
	net  *transport.MemNetwork
	live []*node.Node // nil while crashed
	cl   *node.Client
	keys []keys.Key
}

func diffNodeConfig(id keys.Key) node.Config {
	return node.Config{
		ID:                   id,
		Replicas:             diffReplicas,
		StabilizeInterval:    10 * time.Millisecond,
		RepairInterval:       30 * time.Millisecond,
		PointerStabilization: time.Hour,
		RemoveDelay:          50 * time.Millisecond,
	}
}

func newDifferential(t *testing.T, seed uint64) *differential {
	d := &differential{
		t:    t,
		seed: seed,
		rng:  rand.New(rand.NewPCG(seed, 0x64696666)), // "diff"
		eng:  &sim.Engine{},
		net:  transport.NewMemNetwork(0),
	}
	d.sim = New(d.eng, Config{Nodes: diffNodes, Replicas: diffReplicas, Seed: seed, MigrationBPS: 8_000_000})
	for i, sn := range d.sim.Nodes() {
		nd := node.Start(d.net.NewEndpoint(), diffNodeConfig(sn.ID))
		if i > 0 {
			d.join(nd)
		}
		d.live = append(d.live, nd)
	}
	d.waitSettled()
	cl, err := node.NewClient(d.net.NewEndpoint(), node.ClientConfig{
		Seeds: []transport.Addr{d.live[0].Self().Addr, d.live[1].Self().Addr}, Replicas: diffReplicas,
	})
	if err != nil {
		d.fatalf("client: %v", err)
	}
	d.cl = cl
	return d
}

func (d *differential) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("seed %d: %s\nreplay: go test ./internal/simdht -run 'TestDifferentialLiveRing/seed=%d$'",
		d.seed, fmt.Sprintf(format, args...), d.seed)
}

func (d *differential) close() {
	if d.cl != nil {
		d.cl.Close()
	}
	for _, nd := range d.live {
		if nd != nil {
			nd.Close()
		}
	}
}

func (d *differential) up() []*node.Node {
	var out []*node.Node
	for _, nd := range d.live {
		if nd != nil {
			out = append(out, nd)
		}
	}
	return out
}

// join joins nd through a live member. A rejoin lookup can still route
// through a link to the crashed incarnation, so it retries as an operator
// would.
func (d *differential) join(nd *node.Node) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		err := nd.Join(ctx, d.up()[0].Self().Addr)
		if err == nil {
			return
		}
		if ctx.Err() != nil {
			d.fatalf("join: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (d *differential) waitSettled() {
	for deadline := time.Now().Add(10 * time.Second); !node.Settled(d.up(), diffReplicas); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			d.fatalf("live ring did not settle")
		}
	}
}

// writeKeys puts diffKeys seeded keys of seeded sizes into both models.
func (d *differential) writeKeys() {
	ctx := context.Background()
	for i := 0; i < diffKeys; i++ {
		k := keys.Random(d.rng)
		size := 1 + d.rng.IntN(8192)
		d.keys = append(d.keys, k)
		d.sim.PutInstant(k, int32(size))
		if err := d.cl.Put(ctx, k, make([]byte, size)); err != nil {
			d.fatalf("put %s: %v", k.Short(), err)
		}
	}
	d.eng.Run(d.eng.Now() + 24*time.Hour)
}

func (d *differential) crash(i int) {
	d.sim.NodeFail(i)
	d.eng.Run(d.eng.Now() + 24*time.Hour)
	if err := d.live[i].Close(); err != nil {
		d.fatalf("close node %d: %v", i, err)
	}
	d.live[i] = nil
	d.waitSettled()
}

// restart brings node i back at its ID. The simulator's node keeps its
// disk; the live node restarts on an empty memory store, so its copies
// come back through repair and hand-off. Both must end on the same holders.
func (d *differential) restart(i int) {
	d.sim.NodeRecover(i)
	d.eng.Run(d.eng.Now() + 24*time.Hour)
	nd := node.Start(d.net.NewEndpoint(), diffNodeConfig(d.sim.Nodes()[i].ID))
	d.join(nd)
	d.live[i] = nd
	d.waitSettled()
}

// checkpoint waits for the live ring to quiesce on the replica groups,
// holds a few repair rounds to catch ping-pong, and compares the models.
// Split points are asked for once, after the hold: a node hands out one
// split per ten stabilization rounds.
func (d *differential) checkpoint(stage string) {
	d.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); d.holderDiff() != "" && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(6 * diffNodeConfig(keys.Key{}).RepairInterval)
	if diff := d.holderDiff() + d.loadDiff(); diff != "" {
		d.fatalf("%s: the models disagree:\n%s", stage, diff)
	}
}

// holderDiff describes every member or holder-set disagreement between
// the simulator, the live ring and ring's replica groups ("" when none).
func (d *differential) holderDiff() string {
	var out strings.Builder
	up := d.up()
	var simUp []keys.Key
	for _, sn := range d.sim.Nodes() {
		if sn.Up {
			simUp = append(simUp, sn.ID)
		}
	}
	rg := ring.New(simUp)
	liveUp := make([]keys.Key, len(up))
	for i, nd := range up {
		liveUp[i] = nd.Self().ID
	}
	if !sameSet(simUp, liveUp) {
		return fmt.Sprintf("members: simulator %s, live %s", shortSet(simUp), shortSet(liveUp))
	}

	for _, k := range d.keys {
		var group, simHolders, liveHolders []keys.Key
		for _, rank := range rg.AppendReplicas(nil, k, diffReplicas) {
			group = append(group, rg.At(rank))
		}
		for _, h := range d.sim.blocks[d.sim.byKey[k]].holders {
			if sn := d.sim.nodes[h]; sn.Up {
				simHolders = append(simHolders, sn.ID)
			}
		}
		for _, nd := range up {
			if b, ok := nd.Store().Get(k); ok && !b.IsPointer() {
				liveHolders = append(liveHolders, nd.Self().ID)
			}
		}
		if !sameSet(group, simHolders) || !sameSet(group, liveHolders) {
			fmt.Fprintf(&out, "key %s: ring group %s, simulator %s, live %s\n",
				k.Short(), shortSet(group), shortSet(simHolders), shortSet(liveHolders))
		}
	}
	return out.String()
}

// loadDiff describes every disagreement on split points and on the
// imbalance of held bytes, taken per node in the simulator's index order
// so the float sums match term for term.
func (d *differential) loadDiff() string {
	var out strings.Builder
	var simLoads, liveLoads []float64
	ctx := context.Background()
	probe := d.net.NewEndpoint()
	defer probe.Close()
	for i, sn := range d.sim.Nodes() {
		if !sn.Up {
			continue
		}
		nd := d.live[i]
		simLoads = append(simLoads, float64(sn.HeldBytes))
		liveLoads = append(liveLoads, float64(nd.StoredBytes()))
		simSplit, simOK := d.sim.medianSplit(sn)
		resp, err := transport.Expect[*transport.SplitResp](probe.Call(ctx, nd.Self().Addr, &transport.SplitReq{}))
		if err != nil {
			fmt.Fprintf(&out, "node %d: split request: %v\n", i, err)
			continue
		}
		if resp.Ok != simOK || (simOK && !resp.Median.Equal(simSplit)) {
			fmt.Fprintf(&out, "node %d: split simulator (%s, %v), live (%s, %v)\n",
				i, simSplit.Short(), simOK, resp.Median.Short(), resp.Ok)
		}
	}
	if s, l := stats.NormStdDev(simLoads), stats.NormStdDev(liveLoads); s != l || s != d.sim.Imbalance() {
		fmt.Fprintf(&out, "held-bytes imbalance: simulator %v, live %v\n", s, l)
	}
	return out.String()
}

func sameSet(a, b []keys.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for _, k := range a {
		if !slices.Contains(b, k) {
			return false
		}
	}
	return true
}

func shortSet(ks []keys.Key) string {
	s := make([]string, len(ks))
	for i, k := range ks {
		s[i] = k.Short()
	}
	slices.Sort(s)
	return "[" + strings.Join(s, " ") + "]"
}
