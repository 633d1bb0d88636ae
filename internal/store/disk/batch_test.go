package disk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

// batchOf builds n blocks under keys base, base+1, … with payloads that
// name their key.
func batchOf(base uint64, n int) ([]keys.Key, [][]byte) {
	ks, data := make([]keys.Key, n), make([][]byte, n)
	for i := range ks {
		ks[i] = k(base + uint64(i))
		data[i] = bytes.Repeat([]byte{byte(base + uint64(i))}, 100+i)
	}
	return ks, data
}

// TestPutBatchRecovery: a batch is ordinary put records — it reads back
// block by block, survives a reopen, and a batch cut short on disk
// replays to its intact prefix.
func TestPutBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	ks, data := batchOf(1, 40)
	if err := s.PutBatch(ks, data, 0, t0); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if err := s.PutBatch(ks[:1], data[:2], 0, t0); err == nil {
		t.Fatal("PutBatch accepted 1 key with 2 payloads")
	}
	for i, key := range ks {
		if b, ok := s.Get(key); !ok || !bytes.Equal(b.Data, data[i]) {
			t.Fatalf("block %d after PutBatch = %v, %v", i, b, ok)
		}
	}
	walEnd := s.w.off
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(ks, data, 0, t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("PutBatch on a closed store = %v, want ErrClosed", err)
	}

	// Tear the batch: cut the log in the middle of its last record.
	if err := os.Truncate(filepath.Join(dir, walName(1)), walEnd-50); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if rec := r.Recovery(); rec.Blocks != len(ks)-1 {
		t.Fatalf("recovered %d blocks from a batch torn in its last record, want %d (%+v)", rec.Blocks, len(ks)-1, rec)
	}
	for i, key := range ks[:len(ks)-1] {
		if b, ok := r.Get(key); !ok || !bytes.Equal(b.Data, data[i]) {
			t.Fatalf("block %d after recovery = %v, %v", i, b, ok)
		}
	}
	if _, ok := r.Get(ks[len(ks)-1]); ok {
		t.Fatal("the torn record's block was resurrected")
	}
}

// TestPutBatchSharesFsyncs: concurrent PutBatch and Put callers ride the
// same group commits — far fewer fsyncs than records — and every
// acknowledged block is there afterwards.
func TestPutBatchSharesFsyncs(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Fsync: FsyncAlways})
	defer s.Close()
	const workers, rounds, batch = 8, 20, 16
	var wg sync.WaitGroup
	var failed atomic.Int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				base := uint64(w*1_000_000 + r*1000)
				if w%2 == 0 {
					ks, data := batchOf(base, batch)
					if err := s.PutBatch(ks, data, 0, t0); err != nil {
						failed.Add(1)
					}
				} else {
					s.Put(k(base), []byte(fmt.Sprint(base)), 0, t0)
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d PutBatch calls failed", failed.Load())
	}
	appends, fsyncs := s.m.walAppends.Value(), s.m.walFsyncs.Value()
	want := uint64(workers/2*rounds*batch + workers/2*rounds)
	if appends != want {
		t.Fatalf("wal appends = %d records, want %d", appends, want)
	}
	if fsyncs*4 > appends {
		t.Fatalf("%d fsyncs for %d records: batches are not sharing group commits", fsyncs, appends)
	}
	if h := s.m.groupCommit; h.Count() != fsyncs || uint64(h.Sum()) != appends {
		t.Fatalf("d2_store_group_commit_records saw %d fsyncs covering %d records, want %d covering %d",
			h.Count(), h.Sum(), fsyncs, appends)
	}
	if s.Len() != int(want) {
		t.Fatalf("store holds %d blocks, want %d", s.Len(), want)
	}
}

// faultyLog is a WAL file whose writes or fsyncs can be made to fail.
type faultyLog struct {
	logFile
	failWrite, failSync atomic.Bool
}

var errDisk = errors.New("injected disk failure")

func (f *faultyLog) WriteAt(p []byte, off int64) (int, error) {
	if f.failWrite.Load() {
		return len(p) / 2, errDisk // a short write: half the batch reaches the file
	}
	return f.logFile.WriteAt(p, off)
}

func (f *faultyLog) Sync() error {
	if f.failSync.Load() {
		return errDisk
	}
	return f.logFile.Sync()
}

// TestPutBatchReportsDiskFailure: no ack without durability — a failed
// append or fsync comes back from PutBatch, a failed append indexes
// nothing, and after the disk heals the log is still sound.
func TestPutBatchReportsDiskFailure(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	fl := &faultyLog{logFile: s.w.f}
	s.w.f = fl

	good, goodData := batchOf(1, 8)
	if err := s.PutBatch(good, goodData, 0, t0); err != nil {
		t.Fatalf("PutBatch on a healthy disk: %v", err)
	}

	lost, lostData := batchOf(100, 8)
	fl.failWrite.Store(true)
	if err := s.PutBatch(lost, lostData, 0, t0); !errors.Is(err, errDisk) {
		t.Fatalf("PutBatch with a failing write = %v, want the injected failure", err)
	}
	fl.failWrite.Store(false)
	for _, key := range lost {
		if _, ok := s.Get(key); ok {
			t.Fatal("a block of the failed append is readable")
		}
	}
	if n := s.m.walErrors.Value(); n != 1 {
		t.Fatalf("d2_store_wal_errors_total = %d after one failed append, want 1", n)
	}

	// The next append overwrites the torn bytes of the failed one.
	after, afterData := batchOf(200, 8)
	if err := s.PutBatch(after, afterData, 0, t0); err != nil {
		t.Fatalf("PutBatch after the write healed: %v", err)
	}

	fl.failSync.Store(true)
	unsynced, unsyncedData := batchOf(300, 8)
	if err := s.PutBatch(unsynced, unsyncedData, 0, t0); !errors.Is(err, errDisk) {
		t.Fatalf("PutBatch with a failing fsync = %v, want the injected failure", err)
	}
	fl.failSync.Store(false)
	s.w.f = fl.logFile
	s.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if rec := r.Recovery(); rec.TornRecords != 0 {
		t.Fatalf("recovery found torn records after a failed append was overwritten: %+v", rec)
	}
	for i, key := range append(append([]keys.Key{}, good...), after...) {
		want := append(append([][]byte{}, goodData...), afterData...)[i]
		if b, ok := r.Get(key); !ok || !bytes.Equal(b.Data, want) {
			t.Fatalf("acknowledged block %d lost across the failures", i)
		}
	}
	for _, key := range lost {
		if _, ok := r.Get(key); ok {
			t.Fatal("a block of the failed append came back at recovery")
		}
	}
}

// TestCheckpointWaitsForGarbage: passing CheckpointBytes is not enough —
// a log of live, never-overwritten blocks has nothing to reclaim and is
// left alone; once half of it is dead it is compacted.
func TestCheckpointWaitsForGarbage(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever, CheckpointBytes: 32 << 10})
	defer s.Close()
	payload := bytes.Repeat([]byte{7}, 1024)
	for i := uint64(0); i < 200; i++ { // ~200 KB, all of it live
		s.Put(k(i), payload, 0, t0)
	}
	s.mu.RLock()
	due := s.checkpointDue()
	s.mu.RUnlock()
	if due || s.m.checkpoints.Value() != 0 {
		t.Fatalf("a log with no dead records is due for a checkpoint (due=%v, ran %d)", due, s.m.checkpoints.Value())
	}
	for i := uint64(0); i < 150; i++ {
		s.Delete(k(i))
	}
	// The delete that tipped the balance started the checkpoint itself.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.checkpoints.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.m.checkpoints.Value() == 0 {
		t.Fatal("three quarters of the log is dead and no checkpoint ran")
	}
}
