package perfsim

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/netmodel"
	"github.com/defragdht/d2/internal/placement"
	"github.com/defragdht/d2/internal/synth"
	"github.com/defragdht/d2/internal/trace"
)

func k(v uint64) keys.Key {
	var key keys.Key
	for j := 0; j < 8; j++ {
		key[keys.Size-1-j] = byte(v >> (8 * j))
	}
	return key
}

func TestRouterReachesOwner(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	ids := randomRing(200, rng)
	r := newRouter(ids, rng)
	for trial := 0; trial < 200; trial++ {
		start := rng.IntN(200)
		key := keys.Random(rng)
		path := r.lookup(start, key)
		owner := r.SuccessorIndex(key)
		if start == owner {
			if len(path) != 0 {
				t.Fatalf("lookup from owner took %d hops", len(path))
			}
			continue
		}
		if len(path) == 0 || path[len(path)-1] != owner {
			t.Fatalf("lookup did not reach owner: path=%v owner=%d", path, owner)
		}
	}
}

func TestRouterHopsLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	meanHops := func(n int) float64 {
		ids := randomRing(n, rng)
		r := newRouter(ids, rng)
		total := 0
		const trials = 400
		for i := 0; i < trials; i++ {
			total += len(r.lookup(rng.IntN(n), keys.Random(rng)))
		}
		return float64(total) / trials
	}
	h200 := meanHops(200)
	h1000 := meanHops(1000)
	if h1000 > 4*h200 {
		t.Errorf("hops grew from %.1f (200) to %.1f (1000): not logarithmic-ish", h200, h1000)
	}
	if h1000 > 25 {
		t.Errorf("mean hops at 1000 nodes = %.1f, want O(log n)", h1000)
	}
	if h200 < 1 {
		t.Errorf("mean hops at 200 nodes = %.1f, suspiciously low", h200)
	}
}

func TestBalancedRingEqualizesBytes(t *testing.T) {
	// 1000 blocks of 8 KB in a tight arc, 10 nodes: each node's range
	// should hold ~100 blocks.
	var blocks []keys.Key
	var sizes []int64
	cur := k(1 << 40)
	for i := 0; i < 1000; i++ {
		cur = cur.Add(k(1000))
		blocks = append(blocks, cur)
		sizes = append(sizes, trace.BlockSize)
	}
	ids := balancedRing(blocks, sizes, 10)
	if len(ids) != 10 {
		t.Fatalf("got %d ids", len(ids))
	}
	r := newRouter(ids, rand.New(rand.NewPCG(5, 6)))
	counts := make([]int, 10)
	for _, b := range blocks {
		counts[r.SuccessorIndex(b)]++
	}
	for i, c := range counts {
		if c < 80 || c > 120 {
			t.Errorf("node %d owns %d blocks, want ~100", i, c)
		}
	}
}

func TestBalancedRingUniqueSorted(t *testing.T) {
	// Boundaries landing on one giant file must still give unique IDs.
	blocks := []keys.Key{k(100), k(200)}
	sizes := []int64{1 << 30, 1}
	ids := balancedRing(blocks, sizes, 5)
	if len(ids) != 5 {
		t.Fatalf("got %d ids", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if !ids[i-1].Less(ids[i]) {
			t.Fatalf("ids not strictly increasing at %d", i)
		}
	}
}

func perfTrace() *trace.Trace {
	return synth.Harvard(synth.HarvardConfig{
		Seed:        31,
		Users:       20,
		Days:        2,
		TargetBytes: 96 << 20,
	})
}

func perfConfig(nodes int, parallel bool) Config {
	return Config{
		Nodes:      nodes,
		Parallel:   parallel,
		NumWindows: 4,
		Seed:       7,
	}
}

func runBoth(t *testing.T, nodes int, parallel bool) (d2, trad *Result) {
	t.Helper()
	tr := perfTrace()
	topo := netmodel.NewTopology(nodes, 77)
	vol := keys.NewVolumeID([]byte("pk"), "perf")
	d2 = Run(perfConfig(nodes, parallel), System{
		Name: "d2", Keyer: placement.ForStrategy(placement.D2, vol), Balanced: true,
	}, tr, topo)
	trad = Run(perfConfig(nodes, parallel), System{
		Name: "traditional", Keyer: placement.ForStrategy(placement.HashedBlock, vol),
	}, tr, topo)
	return d2, trad
}

func TestD2BeatsTraditionalOnLookups(t *testing.T) {
	d2, trad := runBoth(t, 100, false)
	if d2.Lookups == 0 || trad.Lookups == 0 {
		t.Fatalf("no lookups recorded: d2=%d trad=%d", d2.Lookups, trad.Lookups)
	}
	if d2.MsgsPerNode() >= trad.MsgsPerNode() {
		t.Errorf("D2 lookup msgs/node %.1f not below traditional %.1f",
			d2.MsgsPerNode(), trad.MsgsPerNode())
	}
	if d2.MeanUserMissRate() >= trad.MeanUserMissRate() {
		t.Errorf("D2 miss rate %.2f not below traditional %.2f",
			d2.MeanUserMissRate(), trad.MeanUserMissRate())
	}
}

func TestD2SequentialSpeedup(t *testing.T) {
	d2, trad := runBoth(t, 100, false)
	if len(d2.Groups) == 0 {
		t.Fatal("no groups measured")
	}
	// Geometric-mean speedup over common groups must exceed 1.
	var logSum float64
	n := 0
	for gi, dLat := range d2.Groups {
		tLat, ok := trad.Groups[gi]
		if !ok || dLat <= 0 || tLat <= 0 {
			continue
		}
		logSum += logRatio(float64(tLat), float64(dLat))
		n++
	}
	if n < 10 {
		t.Fatalf("only %d common groups", n)
	}
	speedup := expApprox(logSum / float64(n))
	if speedup <= 1.0 {
		t.Errorf("sequential geomean speedup = %.2f, want > 1", speedup)
	}
	t.Logf("seq speedup over traditional at 100 nodes: %.2f (%d groups)", speedup, n)
}

func TestGroupsMatchAcrossSystems(t *testing.T) {
	d2, trad := runBoth(t, 50, true)
	common := 0
	for gi := range d2.Groups {
		if _, ok := trad.Groups[gi]; ok {
			common++
			if d2.GroupUser[gi] != trad.GroupUser[gi] {
				t.Fatal("group user mismatch across systems")
			}
		}
	}
	if common == 0 {
		t.Fatal("no common groups between systems")
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr := perfTrace()
	topo := netmodel.NewTopology(50, 77)
	vol := keys.NewVolumeID([]byte("pk"), "perf")
	sys := System{Name: "d2", Keyer: placement.ForStrategy(placement.D2, vol), Balanced: true}
	a := Run(perfConfig(50, false), sys, tr, topo)
	b := Run(perfConfig(50, false), sys, tr, topo)
	if a.LookupMsgs != b.LookupMsgs || len(a.Groups) != len(b.Groups) {
		t.Fatal("perf runs not deterministic")
	}
	for gi, lat := range a.Groups {
		if b.Groups[gi] != lat {
			t.Fatal("group latencies differ between identical runs")
		}
	}
}

func logRatio(a, b float64) float64 { return math.Log(a / b) }

func expApprox(x float64) float64 { return math.Exp(x) }
