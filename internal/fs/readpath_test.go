package fs

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

// countingService is a BlockService over memService that records the key
// of every single-key Get, counts GetManys (stream segments included), and
// can fail the GetManys
// that ask for inode blocks (the directory readahead's) or for the content
// of more than one file (the scan readahead's).
type countingService struct {
	*memService
	mu               sync.Mutex
	gets             []keys.Key
	batches          int
	contentBatches   int // GetManys of content blocks
	scanBatches      int // content GetManys spanning more than one file
	failInodeBatches bool
	failScanBatches  bool
}

func newCountingService() *countingService {
	return &countingService{memService: newMemService()}
}

func (s *countingService) Get(ctx context.Context, k keys.Key) ([]byte, error) {
	s.mu.Lock()
	s.gets = append(s.gets, k)
	s.mu.Unlock()
	return s.memService.Get(ctx, k)
}

func (s *countingService) GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	content := ks[0].BlockNum() != 0
	scan := content && slices.ContainsFunc(ks, func(k keys.Key) bool { return !keys.SameFile(k, ks[0]) })
	s.mu.Lock()
	s.batches++
	if content {
		s.contentBatches++
	}
	if scan {
		s.scanBatches++
	}
	fail := s.failInodeBatches && !content || s.failScanBatches && scan
	s.mu.Unlock()
	if fail {
		return nil, errors.New("injected GetMany failure")
	}
	out := make(map[keys.Key][]byte, len(ks))
	for _, k := range ks {
		if data, err := s.memService.Get(ctx, k); err == nil {
			out[k] = data
		}
	}
	return out, nil
}

func (s *countingService) GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	return s.GetMany(ctx, ks)
}

// fileInodeGets counts the single-key Gets that fetched a file inode.
func (s *countingService) fileInodeGets() int {
	s.mu.Lock()
	ks := slices.Clone(s.gets)
	s.mu.Unlock()
	s.memService.mu.Lock()
	defer s.memService.mu.Unlock()
	n := 0
	for _, k := range ks {
		if ino, err := decodeInode(s.blocks[k]); err == nil && !ino.IsDir {
			n++
		}
	}
	return n
}

// calls counts every service read: single-key Gets and GetManys.
func (s *countingService) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.gets) + s.batches
}

// contentGets counts the single-key Gets of content blocks.
func (s *countingService) contentGets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range s.gets {
		if k.BlockNum() != 0 {
			n++
		}
	}
	return n
}

// readPathFiles is the walk-small shape: one directory of 16 files, inline,
// one-block and multi-block.
const readPathFiles = 16

func readPathContent(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i)}, 700+i*1500)
}

// writeReadPathDir publishes /d/f00 … /d/f15 through a writer on svc.
func writeReadPathDir(t testing.TB, svc BlockService, opts Options) *Volume {
	t.Helper()
	ctx := context.Background()
	w, err := Create(ctx, svc, "testvol", testKey, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mkdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < readPathFiles; i++ {
		if err := w.WriteFile(ctx, fmt.Sprintf("/d/f%02d", i), readPathContent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	return w
}

func openReader(t testing.TB, svc BlockService, opts Options) *Volume {
	t.Helper()
	r, err := Open(context.Background(), svc, "testvol", testKey.Public().(ed25519.PublicKey), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestVerifiedRootMemoRechecksChangedBytes: a reader that memoised its root
// still checks every root whose bytes differ — a tampered one is refused,
// a newly signed one is adopted.
func TestVerifiedRootMemoRechecksChangedBytes(t *testing.T) {
	ctx := context.Background()
	const window = 20 * time.Millisecond
	opts := Options{WriteBackDelay: window}
	svc := newMemService()
	w, err := Create(ctx, svc, "testvol", testKey, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFile(ctx, "/f", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	r := openReader(t, svc, opts)
	if data, err := r.ReadFile(ctx, "/f"); err != nil || string(data) != "one" {
		t.Fatalf("ReadFile = (%q, %v)", data, err)
	}
	rootKey := w.rootKey()
	svc.mu.Lock()
	good := svc.blocks[rootKey]
	svc.mu.Unlock()

	// A byte flipped in place, in the very slice the reader's cache holds.
	good[len(good)-1] ^= 0xFF
	if _, err := r.ReadFile(ctx, "/f"); !errors.Is(err, ErrBadSig) {
		t.Fatalf("root changed in place: err = %v, want ErrBadSig", err)
	}
	good[len(good)-1] ^= 0xFF
	if _, err := r.ReadFile(ctx, "/f"); err != nil {
		t.Fatalf("restored root: %v", err)
	}

	// A tampered copy stored under the root key, seen once the window ends.
	tampered := bytes.Clone(good)
	tampered[len(tampered)-1] ^= 0xFF
	if err := svc.Put(ctx, rootKey, tampered); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * window)
	if _, err := r.ReadFile(ctx, "/f"); !errors.Is(err, ErrBadSig) {
		t.Fatalf("tampered root after the window: err = %v, want ErrBadSig", err)
	}

	// A new, validly signed root replaces it; the memo does not pin the old.
	if err := w.WriteFile(ctx, "/g", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * window)
	if data, err := r.ReadFile(ctx, "/g"); err != nil || string(data) != "two" {
		t.Fatalf("new root: ReadFile(/g) = (%q, %v)", data, err)
	}
	if infos, err := r.ReadDir(ctx, "/"); err != nil || len(infos) != 2 {
		t.Fatalf("new root: ReadDir = (%v, %v)", infos, err)
	}
}

// TestReadAheadFetchesDirectoryInodesInOneBatch: a fresh read handle reads
// a directory's 16 files without one single-key Get of a file inode.
func TestReadAheadFetchesDirectoryInodesInOneBatch(t *testing.T) {
	ctx := context.Background()
	t.Run("batched", func(t *testing.T) {
		svc := newCountingService()
		writeReadPathDir(t, svc, Options{})
		r := openReader(t, svc, Options{})
		for i := 0; i < readPathFiles; i++ {
			data, err := r.ReadFile(ctx, fmt.Sprintf("/d/f%02d", i))
			if err != nil || !bytes.Equal(data, readPathContent(i)) {
				t.Fatalf("f%02d: (%d bytes, %v)", i, len(data), err)
			}
		}
		if n := svc.fileInodeGets(); n != 0 {
			t.Errorf("%d single-key Gets of file inodes, want 0", n)
		}
		if svc.batches == 0 {
			t.Error("no GetMany issued")
		}
	})
}

// TestReadAheadCorruptSiblingFailsOnlyItsFile: blocks the readahead caches
// unverified are still checked when used, so one corrupted inode fails
// only its own file.
func TestReadAheadCorruptSiblingFailsOnlyItsFile(t *testing.T) {
	ctx := context.Background()
	svc := newCountingService()
	writeReadPathDir(t, svc, Options{})
	// Corrupt f05's inode in the store (its key is unchanged).
	const bad = 5
	svc.memService.mu.Lock()
	for k, data := range svc.blocks {
		if ino, err := decodeInode(data); err == nil && !ino.IsDir && ino.Size == int64(len(readPathContent(bad))) {
			tampered := bytes.Clone(data)
			tampered[len(tampered)-1] ^= 0xFF
			svc.blocks[k] = tampered
		}
	}
	svc.memService.mu.Unlock()

	r := openReader(t, svc, Options{})
	for i := 0; i < readPathFiles; i++ {
		data, err := r.ReadFile(ctx, fmt.Sprintf("/d/f%02d", i))
		if i == bad {
			if !errors.Is(err, ErrIntegrity) {
				t.Errorf("corrupted f%02d: err = %v, want ErrIntegrity", i, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(data, readPathContent(i)) {
			t.Errorf("f%02d: (%d bytes, %v)", i, len(data), err)
		}
	}
	if n := svc.fileInodeGets(); n != 0 {
		t.Errorf("%d single-key Gets of file inodes, want 0 (all from the readahead)", n)
	}
}

// TestReadAheadFailureFallsBackToSingleGets: a failing readahead GetMany
// never fails the read.
func TestReadAheadFailureFallsBackToSingleGets(t *testing.T) {
	ctx := context.Background()
	svc := newCountingService()
	writeReadPathDir(t, svc, Options{})
	svc.failInodeBatches = true
	r := openReader(t, svc, Options{})
	for i := 0; i < readPathFiles; i++ {
		data, err := r.ReadFile(ctx, fmt.Sprintf("/d/f%02d", i))
		if err != nil || !bytes.Equal(data, readPathContent(i)) {
			t.Fatalf("f%02d: (%d bytes, %v)", i, len(data), err)
		}
	}
	if n := svc.fileInodeGets(); n != readPathFiles {
		t.Errorf("%d single-key Gets of file inodes, want %d", n, readPathFiles)
	}
}

// sharedDirs snapshots every decoded directory the read cache holds.
func (v *Volume) sharedDirs() map[*dirMeta][]DirEntry {
	v.cmu.Lock()
	defer v.cmu.Unlock()
	out := make(map[*dirMeta][]DirEntry)
	for _, c := range v.rcache {
		if c.meta == nil || c.meta.index == nil {
			continue
		}
		cp := slices.Clone(c.meta.entries)
		for i := range cp {
			cp[i].OrigSlots = slices.Clone(cp[i].OrigSlots)
		}
		out[c.meta] = cp
	}
	return out
}

// TestWriterNeverMutatesSharedDirs: writes and reads on one writer handle
// in one directory share decoded directories; the writes work on copies.
func TestWriterNeverMutatesSharedDirs(t *testing.T) {
	ctx := context.Background()
	svc := newCountingService()
	w := writeReadPathDir(t, svc, Options{})
	seen := make(map[*dirMeta][]DirEntry)
	var seenMu sync.Mutex
	snapshot := func() {
		seenMu.Lock()
		defer seenMu.Unlock()
		for d, entries := range w.sharedDirs() {
			if _, ok := seen[d]; !ok {
				seen[d] = entries
			}
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := w.WriteFile(ctx, fmt.Sprintf("/d/w%d-%02d", g, i%8), []byte{byte(i)}); err != nil {
					errc <- err
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f := (i + g) % readPathFiles
				data, err := w.ReadFile(ctx, fmt.Sprintf("/d/f%02d", f))
				if err == nil && !bytes.Equal(data, readPathContent(f)) {
					err = fmt.Errorf("f%02d: wrong content", f)
				}
				if err == nil {
					_, err = w.ReadDir(ctx, "/d")
				}
				if err != nil {
					errc <- err
					return
				}
				snapshot()
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no decoded directory was shared")
	}
	for d, want := range seen {
		if !reflect.DeepEqual(d.entries, want) {
			t.Fatalf("a shared decoded directory changed after it was cached")
		}
	}
	if infos, err := w.ReadDir(ctx, "/d"); err != nil || len(infos) != readPathFiles+16 {
		t.Fatalf("ReadDir = (%d entries, %v), want %d", len(infos), err, readPathFiles+16)
	}
}

// BenchmarkReadFileWarm measures ReadFile on a read handle whose blocks are
// all cached: the fs layer's own cost (root check, walk, inode check and
// decode, content check and assembly) with no service call.
// scripts/verify.sh fs gates its allocs/op.
func BenchmarkReadFileWarm(b *testing.B) {
	ctx := context.Background()
	svc := newMemService()
	writeReadPathDir(b, svc, Options{})
	r := openReader(b, svc, Options{})
	const path = "/d/f05" // 8 200 bytes: two content blocks
	want := readPathContent(5)
	if data, err := r.ReadFile(ctx, path); err != nil || !bytes.Equal(data, want) {
		b.Fatalf("warm-up read = (%d bytes, %v)", len(data), err)
	}
	gets := svc.gets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadFile(ctx, path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if svc.gets != gets {
		b.Fatalf("%d service Gets during a warm read", svc.gets-gets)
	}
}
