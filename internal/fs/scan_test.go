package fs

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
)

// scanDir lists /d on r and reads its files in the order given (indices
// into the listing), checking each against want.
func scanDir(r *Volume, order []int, want func(name string) []byte) error {
	ctx := context.Background()
	infos, err := r.ReadDir(ctx, "/d")
	if err != nil {
		return err
	}
	for _, i := range order {
		name := infos[i].Name
		data, err := r.ReadFile(ctx, "/d/"+name)
		if err != nil || !bytes.Equal(data, want(name)) {
			return fmt.Errorf("%s: (%d bytes, %v)", name, len(data), err)
		}
	}
	return nil
}

func mustScan(t *testing.T, r *Volume, order []int, want func(name string) []byte) {
	t.Helper()
	if err := scanDir(r, order, want); err != nil {
		t.Fatal(err)
	}
}

// inOrder is 0, 1, …, n-1.
func inOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// readPathWant maps f00 … f15 to their content.
func readPathWant(name string) []byte {
	var i int
	fmt.Sscanf(name, "f%02d", &i)
	return readPathContent(i)
}

// TestScanReadAheadBatchesContent: a fresh handle listing a directory and
// reading its 16 files in order fetches their content blocks in at most two
// GetManys and never one block at a time.
func TestScanReadAheadBatchesContent(t *testing.T) {
	svc := newCountingService()
	writeReadPathDir(t, svc, Options{})
	mustScan(t, openReader(t, svc, Options{}), inOrder(readPathFiles), readPathWant)
	if svc.scanBatches == 0 || svc.contentBatches > 2 {
		t.Errorf("%d content GetManys (%d spanning files), want 1 or 2, all spanning files",
			svc.contentBatches, svc.scanBatches)
	}
	if n := svc.contentGets(); n != 0 {
		t.Errorf("%d single-key Gets of content blocks, want 0", n)
	}
}

// TestScanReadAheadSkipsShuffledReads: reads that do not follow the
// directory's order never read ahead.
func TestScanReadAheadSkipsShuffledReads(t *testing.T) {
	svc := newCountingService()
	writeReadPathDir(t, svc, Options{})
	// i*7+3 mod 16 never puts entry j+1 straight after entry j.
	order := make([]int, readPathFiles)
	for i := range order {
		order[i] = (i*7 + 3) % readPathFiles
	}
	mustScan(t, openReader(t, svc, Options{}), order, readPathWant)
	if svc.scanBatches != 0 {
		t.Errorf("%d GetManys spanning files on shuffled reads, want 0", svc.scanBatches)
	}
}

// TestScanReadAheadNotFromStream: ReadStream in directory order never reads
// ahead, so a stream's open costs what it did.
func TestScanReadAheadNotFromStream(t *testing.T) {
	ctx := context.Background()
	svc := newCountingService()
	writeReadPathDir(t, svc, Options{})
	r := openReader(t, svc, Options{})
	for i := 0; i < readPathFiles; i++ {
		rc, err := r.ReadStream(ctx, fmt.Sprintf("/d/f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || !bytes.Equal(data, readPathContent(i)) {
			t.Fatalf("f%02d: (%d bytes, %v)", i, len(data), err)
		}
	}
	if svc.scanBatches != 0 {
		t.Errorf("%d GetManys spanning files from streams, want 0", svc.scanBatches)
	}
}

// TestScanReadAheadCorruptSiblingContentFailsOnlyItsFile: content blocks
// the scan caches unverified are checked when used, so one corrupted block
// fails only its own file.
func TestScanReadAheadCorruptSiblingContentFailsOnlyItsFile(t *testing.T) {
	ctx := context.Background()
	svc := newCountingService()
	w := writeReadPathDir(t, svc, Options{})
	const bad = 7
	w.mu.Lock()
	f, err := w.fileAt(ctx, w.state.Load(), "/d/f07", []string{"d", "f07"})
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	k := f.cur.blockKey(2, f.ino.BlockVers[1])
	svc.memService.mu.Lock()
	tampered := bytes.Clone(svc.blocks[k])
	tampered[0] ^= 0xFF
	svc.blocks[k] = tampered
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
	if n := svc.contentGets(); svc.scanBatches == 0 || n != 0 {
		t.Errorf("%d scan GetManys, %d single-key content Gets; want the block to come from a scan batch", svc.scanBatches, n)
	}
}

// TestScanReadAheadFailureStillReads: a failing scan GetMany never fails a
// read; each file fetches its own content.
func TestScanReadAheadFailureStillReads(t *testing.T) {
	svc := newCountingService()
	writeReadPathDir(t, svc, Options{})
	svc.failScanBatches = true
	mustScan(t, openReader(t, svc, Options{}), inOrder(readPathFiles), readPathWant)
	if svc.scanBatches == 0 {
		t.Error("no scan GetMany was tried")
	}
}

// TestScanReadAheadMovedEntry: a renamed entry in the scanned directory
// keeps its original keys, and the scan fetches its content under them.
func TestScanReadAheadMovedEntry(t *testing.T) {
	ctx := context.Background()
	svc := newCountingService()
	w := writeReadPathDir(t, svc, Options{})
	if err := w.Rename(ctx, "/d/f05", "/d/g05"); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	want := func(name string) []byte {
		if name == "g05" {
			return readPathContent(5)
		}
		return readPathWant(name)
	}
	r := openReader(t, svc, Options{})
	mustScan(t, r, inOrder(readPathFiles), want)
	if svc.contentBatches > 2 {
		t.Errorf("%d content GetManys, want at most 2", svc.contentBatches)
	}
	if n := svc.contentGets(); n != 0 {
		t.Errorf("%d single-key Gets of content blocks, want 0", n)
	}
}

// TestCheckedInodeServesOnlyItsHash: an inode kept decoded on its cache
// entry is reused only for an entry naming the hash it was checked against.
func TestCheckedInodeServesOnlyItsHash(t *testing.T) {
	ctx := context.Background()
	svc := newMemService()
	writeReadPathDir(t, svc, Options{})
	r := openReader(t, svc, Options{})
	st, err := r.beginRead(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer r.endRead()
	f, err := r.fileAt(ctx, st, "/d/f03", []string{"d", "f03"})
	if err != nil {
		t.Fatal(err)
	}
	e := f.dir.entries[f.idx]
	k := f.cur.blockKey(0, e.Ver)
	if _, err := r.readInode(ctx, k, e.Hash); err != nil {
		t.Fatal(err)
	}
	other := e.Hash
	other[0] ^= 0xFF
	if _, err := r.readInode(ctx, k, other); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("kept inode under another hash: err = %v, want ErrIntegrity", err)
	}
}

// TestColdScanServiceCalls is the cold directory scan: a fresh handle lists
// /d and reads its 16 files in order. It logs the service calls that cost
// (cold_scan_calls=N); scripts/verify.sh fs gates the figure.
func TestColdScanServiceCalls(t *testing.T) {
	svc := newCountingService()
	writeReadPathDir(t, svc, Options{})
	before := svc.calls()
	mustScan(t, openReader(t, svc, Options{}), inOrder(readPathFiles), readPathWant)
	t.Logf("cold_scan_calls=%d", svc.calls()-before)
}

// countSigChecks counts root signature checks until the test ends.
func countSigChecks(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	prev := verifySignature
	verifySignature = func(pub ed25519.PublicKey, msg, sig []byte) bool {
		n.Add(1)
		return prev(pub, msg, sig)
	}
	t.Cleanup(func() { verifySignature = prev })
	return &n
}

// TestRootMemoSharedAcrossHandles: a second handle on the same volume reads
// the root from the ring but does not check its signature again.
func TestRootMemoSharedAcrossHandles(t *testing.T) {
	checks := countSigChecks(t)
	svc := newCountingService()
	writeReadPathDir(t, svc, Options{})
	mustScan(t, openReader(t, svc, Options{}), inOrder(readPathFiles), readPathWant)
	if checks.Load() > 1 {
		t.Fatalf("first handle: %d signature checks, want at most 1", checks.Load())
	}
	checks.Store(0)
	gets := len(svc.gets)
	mustScan(t, openReader(t, svc, Options{}), inOrder(readPathFiles), readPathWant)
	if n := checks.Load(); n != 0 {
		t.Errorf("second handle: %d signature checks, want 0", n)
	}
	if len(svc.gets) == gets {
		t.Error("second handle fetched nothing: it must still read the root from the ring")
	}
}

// TestRootMemoRejectsTamperedRootOnNewHandle: tampered root bytes under the
// same key are checked in full by a new handle and refused.
func TestRootMemoRejectsTamperedRootOnNewHandle(t *testing.T) {
	ctx := context.Background()
	checks := countSigChecks(t)
	svc := newMemService()
	w := writeReadPathDir(t, svc, Options{})
	openReader(t, svc, Options{})
	svc.mu.Lock()
	tampered := bytes.Clone(svc.blocks[w.rootKey()])
	svc.mu.Unlock()
	tampered[len(tampered)-1] ^= 0xFF
	if err := svc.Put(ctx, w.rootKey(), tampered); err != nil {
		t.Fatal(err)
	}
	checks.Store(0)
	_, err := Open(ctx, svc, "testvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if !errors.Is(err, ErrBadSig) {
		t.Fatalf("Open over a tampered root: err = %v, want ErrBadSig", err)
	}
	if checks.Load() != 1 {
		t.Errorf("%d signature checks, want 1", checks.Load())
	}
}

// TestRootMemoNeverServesAnotherKey: a root verified under one publisher
// key is checked in full for a handle holding another, even at the same
// root key and with the same bytes.
func TestRootMemoNeverServesAnotherKey(t *testing.T) {
	ctx := context.Background()
	checks := countSigChecks(t)
	svc := newMemService()
	writeReadPathDir(t, svc, Options{})
	good := openReader(t, svc, Options{})
	other := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{9}, ed25519.SeedSize))
	v := newVolume(svc, "testvol", other.Public().(ed25519.PublicKey), nil, Options{})
	v.volID = good.volID // same root key, same bytes
	checks.Store(0)
	if _, err := v.fetchRoot(ctx); !errors.Is(err, ErrBadSig) {
		t.Fatalf("another key: err = %v, want ErrBadSig", err)
	}
	if checks.Load() != 1 {
		t.Errorf("%d signature checks, want 1", checks.Load())
	}
	if m := memoizedRoot(good.rootKey(), v.pub, good.state.Load().data); m != nil {
		t.Error("memo lookup under another key found an entry")
	}
}

// TestRootMemoConcurrentHandles: 32 goroutines open handles on one volume
// and scan it at once (run under -race by scripts/verify.sh fs).
func TestRootMemoConcurrentHandles(t *testing.T) {
	svc := newCountingService()
	writeReadPathDir(t, svc, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				r, err := Open(context.Background(), svc, "testvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				order := inOrder(readPathFiles)
				if g%2 == 1 {
					for i := range order {
						order[i] = (i*7 + g) % readPathFiles
					}
				}
				if err := scanDir(r, order, readPathWant); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// failOnceBatchService fails its first PutMany and stores every later one.
type failOnceBatchService struct {
	*memService
	failed atomic.Bool
}

func (s *failOnceBatchService) PutMany(ctx context.Context, ks []keys.Key, data [][]byte) error {
	if s.failed.CompareAndSwap(false, true) {
		return errInjected
	}
	for i, k := range ks {
		if err := s.memService.Put(ctx, k, data[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestAutoFlushCountsSyncErrors: a background Sync that fails is counted,
// and the blocks it could not write go out with the next Sync.
func TestAutoFlushCountsSyncErrors(t *testing.T) {
	ctx := context.Background()
	reg := obs.New()
	svc := &failOnceBatchService{memService: newMemService()}
	v, err := Create(ctx, svc, "flushvol", testKey, Options{
		WriteBackDelay: 5 * time.Millisecond, AutoFlush: true, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	content := readPathContent(12) // three content blocks
	if err := v.WriteFile(ctx, "/f", content); err != nil {
		t.Fatal(err)
	}
	errs := reg.Counter("d2_fs_sync_errors_total")
	for deadline := time.Now().Add(5 * time.Second); errs.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the flusher's failed Sync was not counted")
		}
	}
	if err := v.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := errs.Value(); n != 1 {
		t.Errorf("d2_fs_sync_errors_total = %d, want 1", n)
	}
	r, err := Open(ctx, svc, "flushvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data, err := r.ReadFile(ctx, "/f"); err != nil || !bytes.Equal(data, content) {
		t.Fatalf("after the retried Sync: ReadFile = (%d bytes, %v)", len(data), err)
	}
}
