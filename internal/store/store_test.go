// Engine-parametrized store suite: every behavioural case runs against
// both the in-memory store and the durable disk engine through the same
// store.Engine table, so the two implementations cannot drift apart.
package store_test

import (
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/store/disk"
)

func k(v uint64) keys.Key {
	var key keys.Key
	for j := 0; j < 8; j++ {
		key[keys.Size-1-j] = byte(v >> (8 * j))
	}
	return key
}

var t0 = time.Unix(1000, 0)

// engines is the implementation table: each test below runs once per row.
var engines = []struct {
	name string
	open func(t *testing.T) store.Engine
}{
	{"memory", func(t *testing.T) store.Engine { return store.New() }},
	{"disk", func(t *testing.T) store.Engine {
		s, err := disk.Open(t.TempDir(), disk.Options{Fsync: disk.FsyncNever})
		if err != nil {
			t.Fatalf("disk.Open: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}},
}

// forEachEngine runs fn once per engine implementation.
func forEachEngine(t *testing.T, fn func(t *testing.T, s store.Engine)) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			fn(t, eng.open(t))
		})
	}
}

func TestPutGetDelete(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		s.Put(k(1), []byte("hello"), 0, t0)
		b, ok := s.Get(k(1))
		if !ok || string(b.Data) != "hello" || b.IsPointer() {
			t.Fatalf("Get = (%+v, %v)", b, ok)
		}
		if s.Bytes() != 5 || s.Len() != 1 {
			t.Errorf("Bytes=%d Len=%d", s.Bytes(), s.Len())
		}
		s.Put(k(1), []byte("hi"), 0, t0) // replace shrinks accounting
		if s.Bytes() != 2 {
			t.Errorf("Bytes after replace = %d", s.Bytes())
		}
		if !s.Delete(k(1)) || s.Bytes() != 0 || s.Len() != 0 {
			t.Error("Delete accounting wrong")
		}
		if s.Delete(k(1)) {
			t.Error("double delete succeeded")
		}
	})
}

func TestPointerSemantics(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		s.PutPointer(k(1), "addr-a", 8192, t0)
		b, ok := s.Get(k(1))
		if !ok || !b.IsPointer() || b.Size != 8192 {
			t.Fatalf("pointer entry = %+v", b)
		}
		if s.Bytes() != 0 {
			t.Errorf("pointers must not count as stored bytes, got %d", s.Bytes())
		}
		// Data replaces the pointer.
		s.Put(k(1), make([]byte, 100), 0, t0)
		b, _ = s.Get(k(1))
		if b.IsPointer() || s.Bytes() != 100 {
			t.Error("data did not replace pointer cleanly")
		}
		// A later pointer must not clobber real data.
		s.PutPointer(k(1), "addr-b", 50, t0)
		if b, _ = s.Get(k(1)); b.IsPointer() {
			t.Error("pointer overwrote data")
		}
	})
}

func TestTTLSweep(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		s.Put(k(1), []byte("a"), time.Minute, t0)
		s.Put(k(2), []byte("b"), time.Hour, t0)
		s.Put(k(3), []byte("c"), 0, t0)
		if n := s.SweepExpired(t0.Add(10 * time.Minute)); n != 1 {
			t.Fatalf("swept %d, want 1", n)
		}
		if _, ok := s.Get(k(1)); ok {
			t.Error("expired block survived sweep")
		}
		if _, ok := s.Get(k(3)); !ok {
			t.Error("no-TTL block swept")
		}
		// Refresh extends life.
		s.Refresh(k(2), time.Hour, t0.Add(50*time.Minute))
		if n := s.SweepExpired(t0.Add(90 * time.Minute)); n != 0 {
			t.Errorf("refreshed block swept (%d)", n)
		}
		if s.Refresh(k(99), time.Hour, t0) {
			t.Error("Refresh of absent key succeeded")
		}
	})
}

func TestArcAndBytes(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		for i := uint64(1); i <= 10; i++ {
			s.Put(k(i*10), make([]byte, 100), 0, t0)
		}
		items := s.Arc(k(25), k(55))
		if len(items) != 3 { // 30, 40, 50
			t.Fatalf("Arc returned %d items", len(items))
		}
		if got := s.ArcBytes(k(25), k(55)); got != 300 {
			t.Errorf("ArcBytes = %d", got)
		}
		// Wrapping arc.
		if got := len(s.Arc(k(85), k(25))); got != 4 { // 90, 100, 10, 20
			t.Errorf("wrap arc = %d items", got)
		}
	})
}

// TestArcVisit pins the index-only walk the placement census sweeps
// with: key order, arc bounds (including the whole-ring lo==hi form and
// wrapping arcs), pointer metadata, and early termination.
func TestArcVisit(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		for i := uint64(1); i <= 5; i++ {
			s.Put(k(i*10), make([]byte, int(i)), 0, t0)
		}
		s.PutPointer(k(60), "peer:1", 99, t0)

		collect := func(lo, hi keys.Key) (ks []keys.Key, ms []store.Meta) {
			s.ArcVisit(lo, hi, func(key keys.Key, m store.Meta) bool {
				ks = append(ks, key)
				ms = append(ms, m)
				return true
			})
			return
		}

		// Whole ring (lo == hi): every entry once, in ascending key order.
		ks, ms := collect(k(10), k(10))
		if len(ks) != 6 {
			t.Fatalf("whole-ring visit saw %d entries, want 6", len(ks))
		}
		for i := 1; i < len(ks); i++ {
			if !ks[i-1].Less(ks[i]) {
				t.Fatalf("visit out of order at %d: %s !< %s", i, ks[i-1].Short(), ks[i].Short())
			}
		}
		if ms[0].Size != 1 || ms[0].IsPointer() {
			t.Fatalf("first meta = %+v, want size-1 data entry", ms[0])
		}
		last := ms[len(ms)-1]
		if !last.IsPointer() || last.Pointer != "peer:1" || last.Size != 99 {
			t.Fatalf("pointer meta = %+v", last)
		}
		if last.PointerSince != t0.UnixNano() {
			t.Fatalf("PointerSince = %d, want %d", last.PointerSince, t0.UnixNano())
		}

		// Sub-arc (25, 45]: entries 30 and 40 only.
		if ks, _ := collect(k(25), k(45)); len(ks) != 2 || ks[0] != k(30) || ks[1] != k(40) {
			t.Fatalf("sub-arc visit = %v", ks)
		}
		// Wrapping arc (45, 25]: 50, 60, then 10, 20.
		if ks, _ := collect(k(45), k(25)); len(ks) != 4 || ks[0] != k(50) || ks[3] != k(20) {
			t.Fatalf("wrap visit = %v", ks)
		}
		// lo == MaxKey: (MaxKey, 25] is [Zero, 25] → 10, 20, each once.
		if ks, _ := collect(keys.MaxKey, k(25)); len(ks) != 2 || ks[0] != k(10) || ks[1] != k(20) {
			t.Fatalf("visit from MaxKey = %v", ks)
		}
		// Early termination: fn returning false stops the walk.
		n := 0
		s.ArcVisit(k(10), k(10), func(keys.Key, store.Meta) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Fatalf("terminated visit saw %d entries, want 3", n)
		}
	})
}

func TestMedianKey(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		for i := uint64(1); i <= 4; i++ {
			s.Put(k(i*10), make([]byte, 100), 0, t0)
		}
		m, ok := s.MedianKey(k(5), k(45))
		if !ok || m != k(20) {
			t.Fatalf("MedianKey = (%s, %v), want 20", m.Short(), ok)
		}
		if _, ok := s.MedianKey(k(200), k(300)); ok {
			t.Error("median of empty arc")
		}
	})
}

func TestStalePointers(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		s.PutPointer(k(1), "a", 10, t0)
		s.PutPointer(k(2), "b", 10, t0.Add(time.Hour))
		s.Put(k(3), []byte("x"), 0, t0)
		stale := s.StalePointers(t0.Add(30 * time.Minute))
		if len(stale) != 1 || stale[0].Key != k(1) {
			t.Fatalf("StalePointers = %v", stale)
		}
	})
}

func TestKeysSnapshot(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		s.Put(k(2), []byte("b"), 0, t0)
		s.Put(k(1), []byte("a"), 0, t0)
		ks := s.Keys()
		if len(ks) != 2 || !ks[0].Less(ks[1]) {
			t.Fatalf("Keys = %v", ks)
		}
	})
}

func TestGetBatch(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		s.Put(k(1), []byte("a"), 0, t0)
		s.Put(k(3), []byte("c"), 0, t0)
		s.PutPointer(k(5), "addr-p", 64, t0)

		got := s.GetBatch([]keys.Key{k(1), k(2), k(3), k(5), k(1)})
		if len(got) != 5 {
			t.Fatalf("GetBatch returned %d entries, want 5", len(got))
		}
		if got[0] == nil || string(got[0].Data) != "a" {
			t.Errorf("entry 0 = %+v", got[0])
		}
		if got[1] != nil {
			t.Errorf("absent key returned %+v", got[1])
		}
		if got[2] == nil || string(got[2].Data) != "c" {
			t.Errorf("entry 2 = %+v", got[2])
		}
		if got[3] == nil || !got[3].IsPointer() {
			t.Errorf("pointer entry = %+v", got[3])
		}
		if got[4] == nil || string(got[4].Data) != "a" {
			t.Error("duplicate key did not resolve")
		}
		if out := s.GetBatch(nil); len(out) != 0 {
			t.Errorf("empty batch returned %d entries", len(out))
		}
	})
}

func TestArcLimit(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		for i := uint64(1); i <= 10; i++ {
			s.Put(k(i*10), []byte{byte(i)}, 0, t0)
		}

		// Truncated scan, resumed from the last returned key, walks the whole
		// arc in order without duplicates.
		var all []store.Item
		lo := k(5)
		for {
			items, more := s.ArcLimit(lo, k(95), 3)
			all = append(all, items...)
			if !more {
				break
			}
			if len(items) != 3 {
				t.Fatalf("truncated page had %d items", len(items))
			}
			lo = items[len(items)-1].Key
		}
		if len(all) != 9 { // 10..90
			t.Fatalf("paged walk saw %d items, want 9", len(all))
		}
		for i, it := range all {
			if !it.Key.Equal(k(uint64(i+1) * 10)) {
				t.Fatalf("page order broken at %d: %s", i, it.Key.Short())
			}
		}

		// limit <= 0 means no cap; a wrapping arc pages the same way.
		if items, more := s.ArcLimit(k(5), k(95), 0); more || len(items) != 9 {
			t.Errorf("uncapped scan = (%d items, more=%v)", len(items), more)
		}
		items, more := s.ArcLimit(k(85), k(25), 3)
		if !more || len(items) != 3 || !items[0].Key.Equal(k(90)) {
			t.Fatalf("wrap page 1 = (%d items, more=%v)", len(items), more)
		}
		items2, more2 := s.ArcLimit(items[len(items)-1].Key, k(25), 3)
		if more2 || len(items2) != 1 || !items2[0].Key.Equal(k(20)) {
			t.Fatalf("wrap page 2 = (%d items, more=%v)", len(items2), more2)
		}
		// Exact fit: limit equal to the remaining entries reports no more.
		if _, more := s.ArcLimit(k(5), k(95), 9); more {
			t.Error("exact-fit scan reported more")
		}
	})
}
