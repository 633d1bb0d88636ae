package store_test

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/store/disk"
	"github.com/defragdht/d2/internal/transport"
)

var paritySeed = flag.Int64("parity.seed", 0, "replay one TestEngineParity seed (0 = run seeds 1..4)")

// counted is what the parity test needs of an engine beyond store.Engine:
// the index's cheap-scan counters.
type counted interface {
	store.Engine
	Counts() (ttls, ptrs int)
}

// parityKeys is the model's key space: one cluster just above zero and
// one just below the top of the ring, so arcs between them wrap.
func parityKeys() []keys.Key {
	var ks []keys.Key
	for v := byte(1); v <= 10; v++ {
		var lo keys.Key
		lo[keys.Size-1] = v
		hi := keys.MaxKey
		hi[keys.Size-1] = 0xff - v
		ks = append(ks, lo, hi)
	}
	return ks
}

// name labels a model key by its first and last byte, the two that vary.
func name(k keys.Key) string { return fmt.Sprintf("%02x..%02x", k[0], k[keys.Size-1]) }

// TestEngineParity is the model test behind "two engines, one index": a
// seeded random op sequence runs through the memory engine, the disk
// engine, and a disk engine that is checkpointed, closed and reopened
// along the way; after every step every read-side Engine method and the
// ttls/ptrs counters must agree across all three.
func TestEngineParity(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if *paritySeed != 0 {
		seeds = []int64{*paritySeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runParity(t, seed) })
	}
}

func runParity(t *testing.T, seed int64) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("replay with -parity.seed=%d: %s", seed, fmt.Sprintf(format, args...))
	}
	open := func(dir string) *disk.Store {
		s, err := disk.Open(dir, disk.Options{Fsync: disk.FsyncNever})
		if err != nil {
			fail("disk.Open: %v", err)
		}
		return s
	}
	mem := store.New()
	dsk := open(t.TempDir())
	reopenDir := t.TempDir()
	reopened := open(reopenDir)
	defer func() { dsk.Close(); reopened.Close() }()

	rng := rand.New(rand.NewSource(seed))
	ks := parityKeys()
	key := func() keys.Key { return ks[rng.Intn(len(ks))] }
	now := t0

	for step := 0; step < 400; step++ {
		now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
		engines := []counted{mem, dsk, reopened}
		k := key()
		var op string
		var results [3]any
		each := func(fn func(e counted) any) {
			for i, e := range engines {
				results[i] = fn(e)
			}
		}
		switch r := rng.Intn(11); {
		case r < 3:
			data := make([]byte, rng.Intn(64))
			rng.Read(data)
			var ttl time.Duration
			if rng.Intn(2) == 0 {
				ttl = time.Duration(1+rng.Intn(120)) * time.Second
			}
			op = fmt.Sprintf("Put(%s, %d bytes, ttl %v)", name(k), len(data), ttl)
			each(func(e counted) any { e.Put(k, data, ttl, now); return nil })
		case r < 5:
			target, size := fmt.Sprintf("peer:%d", rng.Intn(3)), int64(rng.Intn(9000))
			op = fmt.Sprintf("PutPointer(%s, %s, %d)", name(k), target, size)
			each(func(e counted) any { e.PutPointer(k, transport.Addr(target), size, now); return nil })
		case r < 7:
			op = fmt.Sprintf("Delete(%s)", name(k))
			each(func(e counted) any { return e.Delete(k) })
		case r < 9:
			// Segment pointer records carry no TTL (the byte formats are
			// frozen), so a refreshed pointer loses its deadline at the
			// next checkpoint; the node refreshes data blocks only.
			if b, ok := mem.Get(k); ok && b.IsPointer() {
				continue
			}
			ttl := time.Duration(rng.Intn(3)) * time.Minute
			op = fmt.Sprintf("Refresh(%s, %v)", name(k), ttl)
			each(func(e counted) any { return e.Refresh(k, ttl, now) })
		case r < 10:
			op = "SweepExpired"
			each(func(e counted) any { return e.SweepExpired(now) })
		default:
			// A batch through the optional BatchPutter path (the disk
			// engine's one-append PutBatch) and the per-block fallback (the
			// memory engine) must leave the same state — a repeated key
			// included, where the later block wins.
			n := 1 + rng.Intn(4)
			bks, data := make([]keys.Key, n), make([][]byte, n)
			for i := range bks {
				bks[i], data[i] = key(), make([]byte, rng.Intn(64))
				rng.Read(data[i])
			}
			var ttl time.Duration
			if rng.Intn(2) == 0 {
				ttl = time.Duration(1+rng.Intn(120)) * time.Second
			}
			op = fmt.Sprintf("PutBatch(%d blocks from %s, ttl %v)", n, name(bks[0]), ttl)
			each(func(e counted) any { return store.PutBatch(e, bks, data, ttl, now) })
		}
		if rng.Intn(8) == 0 {
			if rng.Intn(2) == 0 {
				if err := reopened.Checkpoint(); err != nil {
					fail("step %d: Checkpoint: %v", step, err)
				}
			}
			if err := reopened.Close(); err != nil {
				fail("step %d: Close: %v", step, err)
			}
			reopened = open(reopenDir)
			engines[2] = reopened
		}

		arcSeed := rng.Int63()
		want := readSide(mem, ks, now, arcSeed)
		for i, name := range []string{"disk", "disk+reopen"} {
			if results[i+1] != results[0] {
				fail("step %d %s: %s returned %v, memory %v", step, op, name, results[i+1], results[0])
			}
			for j, line := range readSide(engines[i+1], ks, now, arcSeed) {
				if line != want[j] {
					fail("step %d %s: %s says %s, memory %s", step, op, name, line, want[j])
				}
			}
		}
	}
}

// readSide renders the result of every read-side Engine method, plus the
// ttls/ptrs counters, as one line each. Arc bounds are drawn from a
// generator seeded with arcSeed, so two engines asked with the same seed
// answer the same questions.
func readSide(e counted, ks []keys.Key, now time.Time, arcSeed int64) []string {
	ttls, ptrs := e.Counts()
	out := []string{
		fmt.Sprintf("Len = %d, Bytes = %d, ttls/ptrs = %d/%d", e.Len(), e.Bytes(), ttls, ptrs),
		fmt.Sprintf("Keys = %x", e.Keys()),
	}
	batch := e.GetBatch(ks)
	for i, k := range ks {
		b, ok := e.Get(k)
		out = append(out,
			fmt.Sprintf("Get(%s) = %s %v", name(k), showBlock(b), ok),
			fmt.Sprintf("GetBatch[%s] = %s", name(k), showBlock(batch[i])))
	}
	r := rand.New(rand.NewSource(arcSeed))
	for n := 0; n < 4; n++ {
		lo, hi := ks[r.Intn(len(ks))], ks[r.Intn(len(ks))]
		if n == 0 {
			hi = lo // whole ring
		}
		arc := fmt.Sprintf("(%s, %s]", name(lo), name(hi))
		limit := r.Intn(6)
		items, more := e.ArcLimit(lo, hi, limit)
		var metas []string
		e.ArcVisit(lo, hi, func(k keys.Key, m store.Meta) bool {
			metas = append(metas, fmt.Sprintf("%s:%+v", name(k), m))
			return true
		})
		mk, ok := e.MedianKey(lo, hi)
		out = append(out,
			fmt.Sprintf("Arc%s = %s", arc, showItems(e.Arc(lo, hi))),
			fmt.Sprintf("ArcLimit%s %d = %s more=%v", arc, limit, showItems(items), more),
			fmt.Sprintf("ArcBytes%s = %d", arc, e.ArcBytes(lo, hi)),
			fmt.Sprintf("ArcVisit%s = %v", arc, metas),
			fmt.Sprintf("MedianKey%s = %s %v", arc, name(mk), ok))
	}
	age := time.Duration(r.Intn(120)) * time.Second
	return append(out, fmt.Sprintf("StalePointers(now-%v) = %s", age, showItems(e.StalePointers(now.Add(-age)))))
}

func showItems(items []store.Item) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%s:%s ", name(it.Key), showBlock(it.Block))
	}
	return "[" + b.String() + "]"
}

// showBlock renders a Block by value: an empty payload and a nil one are
// the same block, and times compare as instants.
func showBlock(b *store.Block) string {
	if b == nil {
		return "<nil>"
	}
	nano := func(t time.Time) int64 {
		if t.IsZero() {
			return 0
		}
		return t.UnixNano()
	}
	return fmt.Sprintf("{%x size=%d ptr=%q since=%d exp=%d}",
		b.Data, b.Size, b.Pointer, nano(b.PointerSince), nano(b.Expires))
}

// TestMedianKeyUnderWrites hammers MedianKey against writers that keep
// adding and removing most of the arc's bytes. One entry stays put, so
// the arc is never empty and every answer must be a key inside it: a
// median that sums the arc and walks to the half under two separate lock
// holds instead chases a stale total and reports an empty arc — a §6
// balance move silently skipped.
func TestMedianKeyUnderWrites(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		big := make([]byte, 64<<10)
		s.Put(k(10), []byte("anchor"), 0, t0)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := uint64(0); w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					s.Put(k(20+w), big, 0, t0)
					s.Delete(k(20 + w))
				}
			}()
		}
		deadline := time.Now().Add(300 * time.Millisecond)
		for n := 0; time.Now().Before(deadline); n++ {
			m, ok := s.MedianKey(k(5), k(30))
			if !ok || m.Less(k(10)) || k(21).Less(m) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("call %d: MedianKey = (%s, %v) on an arc that always holds key 10", n, m.Short(), ok)
			}
		}
		stop.Store(true)
		wg.Wait()
	})
}

// TestRefreshDoesNotRaceReaders is a -race test: a Block handed out by
// Get, GetBatch or Arc is the caller's own copy, so reading it while
// Refresh retimes the live entry is not a data race.
func TestRefreshDoesNotRaceReaders(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s store.Engine) {
		s.Put(k(1), []byte("payload"), time.Hour, t0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 2000; i++ {
				s.Refresh(k(1), time.Duration(i)*time.Second, t0)
			}
		}()
		var sink time.Time
		for i := 0; i < 2000; i++ {
			if b, ok := s.Get(k(1)); ok {
				sink = b.Expires
			}
			for _, b := range s.GetBatch([]keys.Key{k(1)}) {
				sink = b.Expires
			}
			for _, it := range s.Arc(k(0), k(2)) {
				sink = it.Block.Expires
			}
		}
		<-done
		_ = sink
	})
}
