package btree

import (
	"math/rand/v2"
	"sort"
	"testing"

	"github.com/defragdht/d2/internal/keys"
)

func k(v uint64) keys.Key {
	var key keys.Key
	for j := 0; j < 8; j++ {
		key[keys.Size-1-j] = byte(v >> (8 * j))
	}
	return key
}

func TestSetGetDelete(t *testing.T) {
	var tr Tree[int]
	if _, ok := tr.Get(k(1)); ok {
		t.Error("Get on empty tree")
	}
	if prev, replaced := tr.Set(k(1), 10); replaced {
		t.Errorf("first Set replaced %d", prev)
	}
	if v, ok := tr.Get(k(1)); !ok || v != 10 {
		t.Errorf("Get = (%d, %v)", v, ok)
	}
	if prev, replaced := tr.Set(k(1), 20); !replaced || prev != 10 {
		t.Errorf("replacing Set = (%d, %v)", prev, replaced)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
	if v, ok := tr.Delete(k(1)); !ok || v != 20 {
		t.Errorf("Delete = (%d, %v)", v, ok)
	}
	if tr.Len() != 0 {
		t.Errorf("Len after delete = %d", tr.Len())
	}
	if _, ok := tr.Delete(k(1)); ok {
		t.Error("double delete succeeded")
	}
}

func TestManySequential(t *testing.T) {
	var tr Tree[int]
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Set(k(uint64(i)), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := tr.Get(k(uint64(i))); !ok || v != i {
			t.Fatalf("Get(%d) = (%d, %v)", i, v, ok)
		}
	}
	for i := 0; i < n; i += 2 {
		if _, ok := tr.Delete(k(uint64(i))); !ok {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d after deletes, want %d", tr.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(k(uint64(i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
}

func TestAscendRange(t *testing.T) {
	var tr Tree[int]
	for i := 0; i < 100; i++ {
		tr.Set(k(uint64(i*10)), i)
	}
	var got []int
	tr.AscendRange(k(95), k(250), func(key keys.Key, v int) bool {
		got = append(got, v)
		return true
	})
	want := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	tr.AscendRange(keys.Zero, keys.MaxKey, func(keys.Key, int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestAscendArc(t *testing.T) {
	var tr Tree[int]
	for i := 0; i < 10; i++ {
		tr.Set(k(uint64(i*10)), i)
	}
	collect := func(lo, hi keys.Key) []int {
		var out []int
		tr.AscendArc(lo, hi, func(_ keys.Key, v int) bool {
			out = append(out, v)
			return true
		})
		return out
	}
	// Plain arc (15, 45] → keys 20, 30, 40.
	if got := collect(k(15), k(45)); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("plain arc = %v", got)
	}
	// Inclusive upper bound, exclusive lower.
	if got := collect(k(20), k(40)); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("bounds arc = %v", got)
	}
	// Wrapping arc (75, 25] → 80, 90, 0, 10, 20.
	if got := collect(k(75), k(25)); len(got) != 5 || got[0] != 8 || got[4] != 2 {
		t.Errorf("wrap arc = %v", got)
	}
	// Whole ring (lo == hi).
	if got := collect(k(33), k(33)); len(got) != 10 {
		t.Errorf("whole ring arc visited %d", len(got))
	}
	// lo == MaxKey: the arc (MaxKey, 25] is [Zero, 25] → 0, 10, 20, each
	// once (lo.Next() wraps to Zero; the walk must not cover the tree).
	if got := collect(keys.MaxKey, k(25)); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("arc from MaxKey = %v, want [0 1 2]", got)
	}
	// Early stop across the wrap point.
	count := 0
	tr.AscendArc(k(75), k(25), func(keys.Key, int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("wrap early stop visited %d", count)
	}
}

func TestMin(t *testing.T) {
	var tr Tree[int]
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree")
	}
	tr.Set(k(50), 5)
	tr.Set(k(10), 1)
	tr.Set(k(90), 9)
	key, v, ok := tr.Min()
	if !ok || v != 1 || key != k(10) {
		t.Errorf("Min = (%s, %d, %v)", key.Short(), v, ok)
	}
}

// TestRandomizedAgainstMap runs thousands of random operations against a
// reference map and checks full ordered iteration after each phase.
func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	var tr Tree[uint64]
	ref := map[keys.Key]uint64{}
	universe := make([]keys.Key, 600)
	for i := range universe {
		universe[i] = keys.Random(rng)
	}
	for step := 0; step < 30000; step++ {
		key := universe[rng.IntN(len(universe))]
		switch rng.IntN(3) {
		case 0, 1:
			v := rng.Uint64()
			_, repl := tr.Set(key, v)
			if _, exists := ref[key]; exists != repl {
				t.Fatalf("step %d: Set replaced=%v, ref exists=%v", step, repl, exists)
			}
			ref[key] = v
		case 2:
			v, ok := tr.Delete(key)
			refV, exists := ref[key]
			if ok != exists || (ok && v != refV) {
				t.Fatalf("step %d: Delete=(%d,%v), ref=(%d,%v)", step, v, ok, refV, exists)
			}
			delete(ref, key)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len=%d, ref=%d", step, tr.Len(), len(ref))
		}
	}
	// Final: full iteration must be sorted and match ref exactly.
	var iterated []keys.Key
	tr.AscendRange(keys.Zero, keys.MaxKey, func(key keys.Key, v uint64) bool {
		if ref[key] != v {
			t.Fatalf("iteration value mismatch at %s", key.Short())
		}
		iterated = append(iterated, key)
		return true
	})
	if len(iterated) != len(ref) {
		t.Fatalf("iterated %d keys, ref has %d", len(iterated), len(ref))
	}
	if !sort.SliceIsSorted(iterated, func(i, j int) bool { return iterated[i].Less(iterated[j]) }) {
		t.Fatal("iteration not sorted")
	}
}

func TestRandomArcQueries(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	var tr Tree[int]
	var all []keys.Key
	for i := 0; i < 500; i++ {
		key := keys.Random(rng)
		tr.Set(key, i)
		all = append(all, key)
	}
	for q := 0; q < 200; q++ {
		lo, hi := keys.Random(rng), keys.Random(rng)
		want := 0
		for _, key := range all {
			if key.Between(lo, hi) {
				want++
			}
		}
		got := 0
		tr.AscendArc(lo, hi, func(key keys.Key, _ int) bool {
			if !key.Between(lo, hi) {
				t.Fatalf("arc query returned key outside arc")
			}
			got++
			return true
		})
		if got != want {
			t.Fatalf("arc query %d: got %d keys, want %d", q, got, want)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	ks := make([]keys.Key, 100000)
	for i := range ks {
		ks[i] = keys.Random(rng)
	}
	b.ResetTimer()
	b.ReportAllocs()
	var tr Tree[int]
	for i := 0; i < b.N; i++ {
		tr.Set(ks[i%len(ks)], i)
	}
}

func BenchmarkGet(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	var tr Tree[int]
	ks := make([]keys.Key, 100000)
	for i := range ks {
		ks[i] = keys.Random(rng)
		tr.Set(ks[i], i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(ks[i%len(ks)])
	}
}
