package disk

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/defragdht/d2/internal/keys"
)

// BenchmarkIndexBytesPerEntry sizes the index a disk engine keeps per
// stored block: it puts 200 000 blocks under random keys and reports the
// live heap the store grew by per entry (B/entry) and the heap objects it
// grew by per entry (objs/entry); ns/op is one full garbage collection
// with that index live. scripts/verify.sh disk gates the first two.
func BenchmarkIndexBytesPerEntry(b *testing.B) {
	const n, batch = 200_000, 1000
	s, err := Open(b.TempDir(), Options{Fsync: FsyncNever, CheckpointBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewPCG(1, 2))
	ks, data := make([]keys.Key, batch), make([][]byte, batch)
	payload := []byte("12345678")
	for i := range data {
		data[i] = payload
	}
	before := liveHeap()
	for i := 0; i < n; i += batch {
		for j := range ks {
			ks[j] = keys.Random(rng)
		}
		if err := s.PutBatch(ks, data, 0, t0); err != nil {
			b.Fatal(err)
		}
	}
	after := liveHeap()
	if got := s.Len(); got != n {
		b.Fatalf("index holds %d entries, want %d", got, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/n, "B/entry")
	b.ReportMetric(float64(after.HeapObjects-before.HeapObjects)/n, "objs/entry")
	runtime.KeepAlive(s)
}

// liveHeap returns the heap statistics after two full collections, so
// they count live memory only (the second frees what the first's
// finalizers and pool clearing released).
func liveHeap() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
