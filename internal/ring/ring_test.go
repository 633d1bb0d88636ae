package ring

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"github.com/defragdht/d2/internal/keys"
)

func k(v uint64) keys.Key {
	var key keys.Key
	for j := 0; j < 8; j++ {
		key[keys.Size-1-j] = byte(v >> (8 * j))
	}
	return key
}

func TestNewSortsAndDedupes(t *testing.T) {
	r := New([]keys.Key{k(30), k(10), k(20), k(10)})
	if r.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", r.Len())
	}
	for i, want := range []uint64{10, 20, 30} {
		if r.At(i) != k(want) {
			t.Errorf("At(%d) = %s, want %d", i, r.At(i).Short(), want)
		}
	}
}

func TestSuccessor(t *testing.T) {
	r := New([]keys.Key{k(10), k(20), k(30)})
	tests := []struct {
		name string
		key  keys.Key
		want keys.Key
	}{
		{"below all", k(5), k(10)},
		{"exact hit", k(20), k(20)},
		{"between", k(21), k(30)},
		{"wraps", k(31), k(10)},
		{"zero", keys.Zero, k(10)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.At(r.SuccessorIndex(tt.key)); got != tt.want {
				t.Errorf("Successor(%s) = %s, want %s", tt.key.Short(), got.Short(), tt.want.Short())
			}
		})
	}
}

func TestReplicaGroupWrapsRing(t *testing.T) {
	r := New([]keys.Key{k(10), k(20), k(30), k(40)})
	got := r.AppendReplicas(nil, k(35), 3)
	want := []keys.Key{k(40), k(10), k(20)}
	for i := range want {
		if r.At(got[i]) != want[i] {
			t.Errorf("replica %d = %s, want %s", i, r.At(got[i]).Short(), want[i].Short())
		}
	}
}

func TestReplicaGroupClampedToRingSize(t *testing.T) {
	r := New([]keys.Key{k(10), k(20)})
	got := r.AppendReplicas(nil, k(5), 5)
	if len(got) != 2 {
		t.Fatalf("replica group of size %d, want 2 (ring size)", len(got))
	}
	if got[0] != 0 || got[1] != 1 {
		t.Error("replica group should cover each node exactly once")
	}
}

func TestRangeAndOwns(t *testing.T) {
	r := New([]keys.Key{k(10), k(20), k(30)})
	lo, hi := r.Range(1) // node 20 owns (10, 20]
	if lo != k(10) || hi != k(20) {
		t.Fatalf("Range(1) = (%s, %s], want (10, 20]", lo.Short(), hi.Short())
	}
	if !r.Holds(1, 1, k(15)) || !r.Holds(1, 1, k(20)) {
		t.Error("node 20 must own (10, 20]")
	}
	if r.Holds(1, 1, k(10)) || r.Holds(1, 1, k(25)) {
		t.Error("node 20 must not own keys outside (10, 20]")
	}
	// Node at rank 0 owns the wrapping range (30, 10].
	if !r.Holds(0, 1, k(5)) || !r.Holds(0, 1, k(35)) {
		t.Error("first node must own the wrapping range")
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := New([]keys.Key{k(42)})
	for _, key := range []keys.Key{keys.Zero, k(41), k(42), k(43), keys.MaxKey} {
		if !r.Holds(0, 1, key) {
			t.Errorf("single node must own %s", key.Short())
		}
	}
}

func TestAddRemove(t *testing.T) {
	r := New([]keys.Key{k(10), k(30)})
	rank, err := r.Add(k(20))
	if err != nil || rank != 1 {
		t.Fatalf("Add(20) = (%d, %v), want (1, nil)", rank, err)
	}
	if _, err := r.Add(k(20)); err == nil {
		t.Error("duplicate Add must fail")
	}
	rank, err = r.Remove(k(20))
	if err != nil || rank != 1 {
		t.Fatalf("Remove(20) = (%d, %v), want (1, nil)", rank, err)
	}
	if _, err := r.Remove(k(20)); err == nil {
		t.Error("Remove of absent node must fail")
	}
	if r.Len() != 2 {
		t.Errorf("Len() = %d after add+remove, want 2", r.Len())
	}
}

func TestRankDistance(t *testing.T) {
	r := New([]keys.Key{k(10), k(20), k(30), k(40)})
	if d := r.RankDistance(0, 3); d != 3 {
		t.Errorf("RankDistance(0,3) = %d, want 3", d)
	}
	if d := r.RankDistance(3, 0); d != 1 {
		t.Errorf("RankDistance(3,0) = %d, want 1 (wrap)", d)
	}
	if d := r.RankDistance(2, 2); d != 0 {
		t.Errorf("RankDistance(2,2) = %d, want 0", d)
	}
}

// Property: for random rings, every key's successor is the unique node
// whose (pred, id] range contains it.
func TestQuickOwnershipPartition(t *testing.T) {
	f := func(seed uint64, probe [keys.Size]byte) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 1 + rng.IntN(20)
		ids := make([]keys.Key, n)
		for i := range ids {
			ids[i] = keys.Random(rng)
		}
		r := New(ids)
		key := keys.Key(probe)
		owner := r.SuccessorIndex(key)
		count := 0
		for i := 0; i < r.Len(); i++ {
			if r.Holds(i, 1, key) {
				count++
				if i != owner {
					return false
				}
			}
		}
		return count == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Add keeps the ring sorted.
func TestQuickAddKeepsSorted(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		r := New(nil)
		for i := 0; i < 50; i++ {
			if _, err := r.Add(keys.Random(rng)); err != nil {
				return false
			}
		}
		for i := 1; i < r.Len(); i++ {
			if !r.At(i - 1).Less(r.At(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the replica floor and the replica group are one rule seen from
// two sides — the node at rank i holds key k (k lies above its floor)
// exactly when i is among k's rep successors.
func TestQuickFloorMatchesReplicaGroup(t *testing.T) {
	f := func(seed uint64, probe [keys.Size]byte) bool {
		rng := rand.New(rand.NewPCG(seed, 0x666c6f6f72))
		ids := make([]keys.Key, 1+rng.IntN(12))
		for i := range ids {
			ids[i] = keys.Random(rng)
		}
		r := New(ids)
		rep := 1 + rng.IntN(5)
		group := r.AppendReplicas(nil, keys.Key(probe), rep)
		for i := 0; i < r.Len(); i++ {
			if r.Holds(i, rep, keys.Key(probe)) != slices.Contains(group, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFloor(t *testing.T) {
	r := New([]keys.Key{k(10), k(20), k(30), k(40)})
	if got := r.Floor(0, 3); got != k(20) {
		t.Errorf("Floor(0, 3) = %s, want 20 (third predecessor, wrapping)", got.Short())
	}
	if got := r.Floor(3, 1); got != k(30) {
		t.Errorf("Floor(3, 1) = %s, want 30 (the predecessor)", got.Short())
	}
	// Four nodes, four replicas: every node holds every key.
	if got := r.Floor(2, 4); got != k(30) {
		t.Errorf("Floor(2, 4) = %s, want the node's own ID (whole ring)", got.Short())
	}
	if buf := r.AppendReplicas(make([]int, 0, 8), k(25), 3); testing.AllocsPerRun(100, func() {
		buf = r.AppendReplicas(buf[:0], k(25), 3)
	}) != 0 {
		t.Error("AppendReplicas into a reused buffer allocates")
	}
}

func TestByteSplit(t *testing.T) {
	walk := func(ks []uint64, sizes []int64) func(func(keys.Key, int64) bool) {
		return func(visit func(keys.Key, int64) bool) {
			for i, v := range ks {
				if !visit(k(v), sizes[i]) {
					return
				}
			}
		}
	}
	split := func(ks []uint64, sizes []int64, n, stopAfter int) []uint64 {
		var cuts []uint64
		ByteSplit(walk(ks, sizes), n, func(c keys.Key) bool {
			for _, v := range ks {
				if k(v) == c {
					cuts = append(cuts, v)
				}
			}
			return len(cuts) < stopAfter
		})
		return cuts
	}
	tests := []struct {
		name      string
		ks        []uint64
		sizes     []int64
		n, stop   int
		wantSplit []uint64
	}{
		// total 7: the median is the first key reaching 7/2 = 3 bytes.
		{"median", []uint64{1, 2, 3, 4}, []int64{1, 1, 2, 3}, 2, 1, []uint64{3}},
		{"equal parts", []uint64{1, 2, 3, 4}, []int64{5, 5, 5, 5}, 4, 99, []uint64{1, 2, 3, 4}},
		// One huge block carries several boundaries.
		{"stacked cuts", []uint64{1, 2}, []int64{100, 1}, 3, 99, []uint64{1, 1, 2}},
		{"no bytes", []uint64{1, 2}, []int64{0, 0}, 2, 99, nil},
		{"empty", nil, nil, 2, 99, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := split(tt.ks, tt.sizes, tt.n, tt.stop); !slices.Equal(got, tt.wantSplit) {
				t.Errorf("cuts = %v, want %v", got, tt.wantSplit)
			}
		})
	}
}

func TestHeavier(t *testing.T) {
	if !Heavier(401, 100, 4) {
		t.Error("401 > 4·100 must move the prober")
	}
	if Heavier(400, 100, 4) {
		t.Error("400 = 4·100 is within the band")
	}
	if !Heavier(1, 0, 4) || Heavier(0, 0, 4) {
		t.Error("an empty prober moves for any load and only for some load")
	}
}

func TestSettled(t *testing.T) {
	ids := []keys.Key{k(10), k(20), k(30), k(40)}
	views := func() []View {
		vs := make([]View, len(ids))
		for i := range ids {
			n := len(ids)
			vs[i] = View{Self: ids[i], Pred: ids[(i+n-1)%n], Succs: []keys.Key{ids[(i+1)%n], ids[(i+2)%n], ids[(i+3)%n]}}
		}
		// Input order is irrelevant.
		vs[0], vs[2] = vs[2], vs[0]
		return vs
	}
	if !Settled(views(), 3) {
		t.Fatal("a consistent ring must be settled")
	}
	vs := views()
	vs[1].Succs[1] = k(99)
	if Settled(vs, 3) {
		t.Error("a wrong second successor must not be settled at r=3")
	}
	if !Settled(vs, 2) {
		t.Error("r=2 checks only the first successor")
	}
	vs = views()
	vs[3].Pred = k(99)
	if Settled(vs, 3) {
		t.Error("a wrong predecessor must not be settled")
	}
	vs = views()
	vs[0].Succs = vs[0].Succs[:1]
	if Settled(vs, 3) {
		t.Error("a short successor list must not be settled")
	}
	if !Settled([]View{{Self: k(5)}}, 3) {
		t.Error("a lone node is settled")
	}
}
