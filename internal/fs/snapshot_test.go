package fs

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

// keepService is a memService whose Remove keeps the block: a reader on an
// older root still finds every block under it, as §3's delayed removal
// lets stale readers finish before a superseded block goes.
type keepService struct{ *memService }

func (keepService) Remove(context.Context, keys.Key) error { return nil }

// versionContent is version ver of file f: a header naming both, repeated
// to a size that moves the file between inline, one block and three.
func versionContent(f, ver int) []byte {
	size := []int{900, 7000, 20000}[(f+ver)%3]
	head := fmt.Sprintf("f%d v%03d ", f, ver)
	return bytes.Repeat([]byte(head), size/len(head))
}

// contentVersion returns the version of file f whose bytes data are, or -1.
func contentVersion(f int, data []byte) int {
	var gotF, ver int
	if _, err := fmt.Sscanf(string(data), "f%d v%03d ", &gotF, &ver); err != nil || gotF != f {
		return -1
	}
	if !bytes.Equal(data, versionContent(f, ver)) {
		return -1
	}
	return ver
}

// TestSharedReaderHandle: 8 goroutines read one read-only handle while a
// writer handle in the same process saves and syncs new versions of the
// same files. Every read returns exactly the bytes of one version the
// writer has saved — never an error, a mix of two versions or a version
// not yet written — and the readers see the versions change. The writer
// handle is opened after the reader, so both start from the one root
// state the process memoized, and reads its own unsynced writes in
// between. scripts/verify.sh fs runs it under -race -count=20.
func TestSharedReaderHandle(t *testing.T) {
	ctx := context.Background()
	const files, versions, readers = 4, 30, 8
	path := func(f int) string { return fmt.Sprintf("/d/f%d", f) }
	svc := keepService{newMemService()}
	creator, err := Create(ctx, svc, "testvol", testKey, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := creator.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < files; f++ {
		if err := creator.WriteFile(ctx, path(f), versionContent(f, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := creator.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// A short cache window: the readers fetch the root again every
	// millisecond, so they move from root to root as the writer syncs.
	r := openReader(t, svc, Options{WriteBackDelay: time.Millisecond})
	w, err := Open(ctx, svc, "testvol", testKey.Public().(ed25519.PublicKey), testKey, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.state.Load() != r.state.Load() {
		t.Fatal("the writer and the reader did not open on the one memoized root state")
	}

	var (
		saved atomic.Int64 // highest version the writer has begun to save
		reads atomic.Int64
		seen  [versions + 1]atomic.Bool
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := (g + i) % files
				data, err := r.ReadFile(ctx, path(f))
				if err != nil {
					t.Errorf("reader %d: ReadFile(%s): %v", g, path(f), err)
					return
				}
				ver := contentVersion(f, data)
				if ver < 0 || int64(ver) > saved.Load() {
					t.Errorf("reader %d: %s read %d bytes that are no saved version (%.12q)", g, path(f), len(data), data)
					return
				}
				seen[ver].Store(true)
				if i%8 == 0 {
					if infos, err := r.ReadDir(ctx, "/d"); err != nil || len(infos) != files {
						t.Errorf("reader %d: ReadDir = (%d entries, %v)", g, len(infos), err)
						return
					}
				}
				reads.Add(1)
			}
		}(g)
	}
	for ver := 1; ver <= versions && !t.Failed(); ver++ {
		// Let the readers run against the last root before the next.
		for n := reads.Load(); reads.Load() < n+readers && !t.Failed(); {
			time.Sleep(100 * time.Microsecond)
		}
		saved.Store(int64(ver))
		for f := 0; f < files; f++ {
			if err := w.WriteFile(ctx, path(f), versionContent(f, ver)); err != nil {
				t.Fatal(err)
			}
		}
		f := ver % files
		if data, err := w.ReadFile(ctx, path(f)); err != nil || contentVersion(f, data) != ver {
			t.Fatalf("writer reads its own write of %s v%d: (%d bytes, %v)", path(f), ver, len(data), err)
		}
		if err := w.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	distinct := 0
	for i := range seen {
		if seen[i].Load() {
			distinct++
		}
	}
	if distinct < 2 {
		t.Errorf("the readers saw %d distinct versions in %d reads, want at least 2", distinct, reads.Load())
	}
}

// slowService is a BlockService that takes delay per read call, the time
// a round trip to the ring would.
type slowService struct {
	*memService
	delay time.Duration
}

func (s *slowService) Get(ctx context.Context, k keys.Key) ([]byte, error) {
	time.Sleep(s.delay)
	return s.memService.Get(ctx, k)
}

func (s *slowService) GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	time.Sleep(s.delay)
	return s.memService.GetMany(ctx, ks)
}

func (s *slowService) GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	return s.GetMany(ctx, ks)
}

// BenchmarkReadFileParallel reads 8 directories of 32 files (9 000 B, two
// content blocks each) through one read-only handle over a service that
// takes 200 µs per read call: one pass from one goroutine, then one from 8,
// a directory each. Each pass starts from an empty read cache, and files
// are read in reverse so the scan readahead stays out: every file costs
// its own content GetMany. It reports the 8-goroutine pass's speedup over
// the single goroutine's; scripts/verify.sh fs gates it.
func BenchmarkReadFileParallel(b *testing.B) {
	ctx := context.Background()
	const dirs, files = 8, 32
	path := func(d, f int) string { return fmt.Sprintf("/d%d/f%02d", d, f) }
	content := func(d, f int) []byte { return bytes.Repeat([]byte{byte(d*files + f)}, 9000) }
	mem := newMemService()
	w, err := Create(ctx, mem, "testvol", testKey, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for d := 0; d < dirs; d++ {
		if err := w.Mkdir(ctx, fmt.Sprintf("/d%d", d)); err != nil {
			b.Fatal(err)
		}
		for f := 0; f < files; f++ {
			if err := w.WriteFile(ctx, path(d, f), content(d, f)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Sync(ctx); err != nil {
		b.Fatal(err)
	}
	r := openReader(b, &slowService{memService: mem, delay: 200 * time.Microsecond}, Options{})
	pass := func(goroutines int) time.Duration {
		r.dropReadCacheForTest()
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for d := g; d < dirs; d += goroutines {
					for f := files - 1; f >= 0; f-- {
						data, err := r.ReadFile(ctx, path(d, f))
						if err != nil || !bytes.Equal(data, content(d, f)) {
							b.Errorf("%s: (%d bytes, %v)", path(d, f), len(data), err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}
	var one, many time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one += pass(1)
		many += pass(dirs)
	}
	b.ReportMetric(float64(one)/float64(many), "speedup")
}
