package fs

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

// recService records every call a volume makes on its block service, in
// order, and can fail puts on demand. Like memService it removes at once,
// so a put followed by a remove of the same key is a lost block straight
// away.
type recService struct {
	*memService

	rmu      sync.Mutex
	log      []string // "put <key>" | "putmany <n>" | "remove <key>"
	putCalls int      // Put and PutMany calls since the last heal
	failAt   int      // fail put calls from the n-th (1-based) on; 0 = never
	delay    time.Duration
}

var errInjected = errors.New("injected put failure")

func (s *recService) note(entry string) {
	s.rmu.Lock()
	s.log = append(s.log, entry)
	s.rmu.Unlock()
}

// gate counts one put call and reports whether it is to fail.
func (s *recService) gate() error {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	s.putCalls++
	if s.failAt > 0 && s.putCalls >= s.failAt {
		return errInjected
	}
	return nil
}

func (s *recService) failFrom(n int) {
	s.rmu.Lock()
	s.failAt, s.putCalls = n, 0
	s.rmu.Unlock()
}

func (s *recService) Put(ctx context.Context, k keys.Key, data []byte) error {
	if err := s.gate(); err != nil {
		return err
	}
	s.note("put " + k.String())
	return s.memService.Put(ctx, k, data)
}

func (s *recService) Remove(ctx context.Context, k keys.Key) error {
	s.note("remove " + k.String())
	return s.memService.Remove(ctx, k)
}

func (s *recService) entries() []string {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return append([]string(nil), s.log...)
}

// recBatchService adds the batched write path: one log entry per PutMany,
// all of its blocks stored or none.
type recBatchService struct{ *recService }

func (s recBatchService) PutMany(ctx context.Context, ks []keys.Key, data [][]byte) error {
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := s.gate(); err != nil {
		return err
	}
	for i, k := range ks {
		if err := s.memService.Put(ctx, k, data[i]); err != nil {
			return err
		}
	}
	s.note(fmt.Sprintf("putmany %d", len(ks)))
	return nil
}

// writeServices runs fn against a plain block service and a batched one:
// the two paths Sync and WriteStream can take.
func writeServices(t *testing.T, fn func(t *testing.T, svc BlockService, rec *recService)) {
	t.Run("put", func(t *testing.T) {
		rec := &recService{memService: newMemService()}
		fn(t, rec, rec)
	})
	t.Run("putmany", func(t *testing.T) {
		rec := &recService{memService: newMemService()}
		fn(t, recBatchService{rec}, rec)
	})
}

func createOn(t *testing.T, svc BlockService) *Volume {
	t.Helper()
	v, err := Create(context.Background(), svc, "writevol", testKey, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// readerOn opens a fresh read-only handle: nothing cached, every block
// comes from the service.
func readerOn(t *testing.T, svc BlockService) *Volume {
	t.Helper()
	r, err := Open(context.Background(), svc, "writevol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustWrite(t *testing.T, v *Volume, path string, data []byte) {
	t.Helper()
	if err := v.WriteFile(context.Background(), path, data); err != nil {
		t.Fatalf("WriteFile %s: %v", path, err)
	}
}

func mustSync(t *testing.T, v *Volume) {
	t.Helper()
	if err := v.Sync(context.Background()); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func mustRead(t *testing.T, v *Volume, path string, want []byte) {
	t.Helper()
	got, err := v.ReadFile(context.Background(), path)
	if err != nil {
		t.Fatalf("ReadFile %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadFile %s: %d bytes, want %d", path, len(got), len(want))
	}
}

// blockOf returns n bytes of one value: distinct fills give distinct
// block keys, equal fills the same key.
func blockOf(fill byte, n int) []byte { return bytes.Repeat([]byte{fill}, n) }

// TestRewriteKeepsUnchangedBlocks pins the write-back window's
// disjointness: a rewrite that keeps some blocks (same index, same
// content, hence the same key) must not put them and then remove them.
func TestRewriteKeepsUnchangedBlocks(t *testing.T) {
	writeServices(t, func(t *testing.T, svc BlockService, _ *recService) {
		v := createOn(t, svc)
		a, b, c := blockOf('a', BlockSize), blockOf('b', BlockSize), blockOf('c', BlockSize)

		t.Run("file", func(t *testing.T) {
			mustWrite(t, v, "/f", append(append([]byte{}, a...), b...))
			mustSync(t, v)
			ac := append(append([]byte{}, a...), c...)
			mustWrite(t, v, "/f", ac)
			mustSync(t, v)
			mustRead(t, readerOn(t, svc), "/f", ac)
		})
		t.Run("stream", func(t *testing.T) {
			ctx := context.Background()
			stream := func(data []byte) {
				w, err := v.WriteStream(ctx, "/s")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Write(data); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				mustSync(t, v)
			}
			stream(append(append([]byte{}, a...), b...))
			ac := append(append([]byte{}, a...), c...)
			stream(ac)
			mustRead(t, readerOn(t, svc), "/s", ac)
		})
		t.Run("directory", func(t *testing.T) {
			// Enough entries that the listing outgrows the inode and lives
			// in content blocks of its own; adding one entry rewrites the
			// last block and keeps the first.
			ctx := context.Background()
			if err := v.Mkdir(ctx, "/d"); err != nil {
				t.Fatal(err)
			}
			n := 0
			for ; n < 3*BlockSize/minDirEntry; n++ {
				mustWrite(t, v, fmt.Sprintf("/d/file-%04d", n), []byte("x"))
			}
			mustSync(t, v)
			mustWrite(t, v, fmt.Sprintf("/d/file-%04d", n), []byte("x"))
			mustSync(t, v)
			infos, err := readerOn(t, svc).ReadDir(ctx, "/d")
			if err != nil {
				t.Fatalf("ReadDir: %v", err)
			}
			if len(infos) != n+1 {
				t.Fatalf("ReadDir saw %d entries, want %d", len(infos), n+1)
			}
		})
	})
}

// TestSyncOrdersRootLast pins the publication order: every other block,
// then the root alone, then the removals — and a save's ancestors once
// each, not once per file written under them.
func TestSyncOrdersRootLast(t *testing.T) {
	writeServices(t, func(t *testing.T, svc BlockService, rec *recService) {
		v := createOn(t, svc)
		ctx := context.Background()
		if err := v.MkdirAll(ctx, "/g/s"); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, v, "/g/s/old", blockOf('o', 2*BlockSize))
		mustSync(t, v)

		start := len(rec.entries())
		const files = 8
		for i := 0; i < files; i++ {
			mustWrite(t, v, fmt.Sprintf("/g/s/f%d", i), blockOf(byte('0'+i), 2*BlockSize))
		}
		if err := v.Remove(ctx, "/g/s/old"); err != nil {
			t.Fatal(err)
		}
		mustSync(t, v)

		log := rec.entries()[start:]
		root := "put " + v.rootKey().String()
		rootAt, puts, removes := -1, 0, 0
		for i, e := range log {
			switch {
			case e == root:
				if rootAt >= 0 {
					t.Fatalf("root put twice in one Sync: %v", log)
				}
				rootAt = i
			case strings.HasPrefix(e, "put "):
				puts++
				if rootAt >= 0 {
					t.Fatalf("block put after the root (entry %d): %v", i, log)
				}
			case strings.HasPrefix(e, "putmany "):
				var n int
				fmt.Sscanf(e, "putmany %d", &n)
				puts += n
				if rootAt >= 0 {
					t.Fatalf("batch put after the root (entry %d): %v", i, log)
				}
			case strings.HasPrefix(e, "remove "):
				removes++
				if rootAt < 0 {
					t.Fatalf("removal before the root (entry %d): %v", i, log)
				}
			}
		}
		if rootAt < 0 {
			t.Fatalf("Sync never put the root: %v", log)
		}
		// 8 files × (inode + 2 blocks), and /g/s and /g once each.
		if want := files*3 + 2; puts != want {
			t.Errorf("Sync put %d blocks besides the root, want %d", puts, want)
		}
		// The removed file's inode and 2 blocks, and the superseded /g/s
		// and /g inodes: what was published before and is unreferenced now.
		if want := 3 + 2; removes != want {
			t.Errorf("Sync removed %d blocks, want %d", removes, want)
		}
		for i := 0; i < files; i++ {
			mustRead(t, readerOn(t, svc), fmt.Sprintf("/g/s/f%d", i), blockOf(byte('0'+i), 2*BlockSize))
		}
	})
}

// TestSyncFailureKeepsWindow: a Sync that fails — at any of its put
// calls — reports the blocks it did not write and keeps them (and the
// removals) in the write-back window, so the next Sync finishes the job.
func TestSyncFailureKeepsWindow(t *testing.T) {
	writeServices(t, func(t *testing.T, _ BlockService, _ *recService) {
		batched := t.Name()[strings.LastIndex(t.Name(), "/")+1:] == "putmany"
		for failAt := 1; ; failAt++ {
			rec := &recService{memService: newMemService()}
			var svc BlockService = rec
			if batched {
				svc = recBatchService{rec}
			}
			v := createOn(t, svc)
			ctx := context.Background()
			mustWrite(t, v, "/keep", blockOf('k', 2*BlockSize))
			mustSync(t, v)

			want := map[string][]byte{}
			for i := 0; i < 4; i++ {
				path := fmt.Sprintf("/f%d", i)
				want[path] = blockOf(byte('0'+i), 2*BlockSize)
				mustWrite(t, v, path, want[path])
			}
			if err := v.Remove(ctx, "/keep"); err != nil {
				t.Fatal(err)
			}
			before := rec.numBlocks()

			rec.failFrom(failAt)
			err := v.Sync(ctx)
			if err == nil {
				if failAt == 1 {
					t.Fatal("the first put call never failed")
				}
				return // failAt is past the Sync's last put call: every point tried
			}
			var se *SyncError
			if !errors.As(err, &se) || !errors.Is(err, errInjected) {
				t.Fatalf("fail at %d: Sync error = %v, want a *SyncError wrapping the injected failure", failAt, err)
			}
			if len(se.Keys) == 0 || se.Keys[len(se.Keys)-1] != v.rootKey() {
				t.Fatalf("fail at %d: SyncError.Keys = %d keys, want the unwritten blocks ending with the root", failAt, len(se.Keys))
			}
			// Nothing was published: the old root stands, and /keep is
			// still there for other readers.
			mustRead(t, readerOn(t, svc), "/keep", blockOf('k', 2*BlockSize))
			// The writer still reads everything it wrote.
			for path, data := range want {
				mustRead(t, v, path, data)
			}

			rec.failFrom(0)
			mustSync(t, v)
			r := readerOn(t, svc)
			for path, data := range want {
				mustRead(t, r, path, data)
			}
			if _, err := r.ReadFile(ctx, "/keep"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("fail at %d: removed file still readable: %v", failAt, err)
			}
			// 4 files × 3 blocks arrive, /keep's 3 blocks go.
			if got, want := rec.numBlocks(), before+4*3-3; got != want {
				t.Errorf("fail at %d: service holds %d blocks after the healed Sync, want %d", failAt, got, want)
			}
		}
	})
}

// TestReadCacheBoundedOnWrites: a writer that never reads stays inside
// the read cache's caps too.
func TestReadCacheBoundedOnWrites(t *testing.T) {
	v := createOn(t, newMemService())
	for i := 0; i < 2*rcacheMaxEntries; i++ {
		v.writeBlock(keys.Encode(v.volID, keys.PathCode{}, uint64(i+1), 0), []byte("metadata"), true)
	}
	v.cmu.Lock()
	n := len(v.rcache)
	v.cmu.Unlock()
	if n > rcacheMaxEntries {
		t.Fatalf("read cache holds %d entries, cap %d", n, rcacheMaxEntries)
	}
}

// TestWriteStreamPipeline covers the batched stream writer: a long file
// round-trips, a failed batch is sticky, Close drains, and no goroutine
// outlives the writer.
func TestWriteStreamPipeline(t *testing.T) {
	writeServices(t, func(t *testing.T, svc BlockService, rec *recService) {
		v := createOn(t, svc)
		ctx := context.Background()
		rec.delay = time.Millisecond // keep a batch in flight while the next fills
		data := randBytes(5*streamBatchBlocks*BlockSize/2 + 321)

		goroutines := runtime.NumGoroutine()
		w, err := v.WriteStream(ctx, "/big")
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += 100_000 {
			if _, err := w.Write(data[off:min(off+100_000, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Close returned: every data block is in the service already.
		blocks := (len(data) + BlockSize - 1) / BlockSize
		if got := rec.numBlocks(); got < blocks {
			t.Fatalf("Close returned with %d blocks stored, want at least %d", got, blocks)
		}
		mustSync(t, v)
		mustRead(t, readerOn(t, svc), "/big", data)

		// A failed batch: the error reaches a later Write, every Write
		// after it, and Close; the file stays as the open left it.
		w, err = v.WriteStream(ctx, "/broken")
		if err != nil {
			t.Fatal(err)
		}
		rec.failFrom(1)
		var werr error
		for off := 0; off < len(data) && werr == nil; off += BlockSize {
			_, werr = w.Write(data[off : off+BlockSize])
		}
		if !errors.Is(werr, errInjected) {
			t.Fatalf("Write after a failed batch = %v, want the injected failure", werr)
		}
		if _, err := w.Write([]byte("more")); !errors.Is(err, errInjected) {
			t.Fatalf("error not sticky: %v", err)
		}
		if err := w.Close(); !errors.Is(err, errInjected) {
			t.Fatalf("Close = %v, want the injected failure", err)
		}
		rec.failFrom(0)
		mustRead(t, v, "/broken", nil)

		// An abandoned writer: its batch in flight finishes on its own.
		w, err = v.WriteStream(ctx, "/abandoned")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data[:2*streamBatchBlocks*BlockSize]); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Fatalf("%d goroutines after the writers are done, %d before", n, goroutines)
		}
	})
}
