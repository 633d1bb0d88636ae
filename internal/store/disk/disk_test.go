package disk

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

func k(v uint64) keys.Key {
	var key keys.Key
	for j := 0; j < 8; j++ {
		key[keys.Size-1-j] = byte(v >> (8 * j))
	}
	return key
}

var t0 = time.Unix(1000, 0)

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestRecovery is the round trip: put a mixed volume, close cleanly,
// reopen, and expect every entry back byte-identical.
func TestRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := uint64(1); i <= 50; i++ {
		s.Put(k(i), bytes.Repeat([]byte{byte(i)}, int(i)), 0, t0)
	}
	s.Put(k(100), []byte("ttl"), time.Hour, t0)
	s.PutPointer(k(200), "host:1234", 4096, t0)
	s.Delete(k(7))
	s.Refresh(k(100), 2*time.Hour, t0)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	rec := r.Recovery()
	if rec.Blocks != 50 || rec.Pointers != 1 { // 49 puts survive + the ttl block
		t.Fatalf("recovery stats = %+v", rec)
	}
	if rec.TornRecords != 0 {
		t.Fatalf("clean close produced torn records: %+v", rec)
	}
	for i := uint64(1); i <= 50; i++ {
		b, ok := r.Get(k(i))
		if i == 7 {
			if ok {
				t.Fatalf("deleted key %d resurrected", i)
			}
			continue
		}
		if !ok || !bytes.Equal(b.Data, bytes.Repeat([]byte{byte(i)}, int(i))) {
			t.Fatalf("key %d: (%v, %v)", i, b, ok)
		}
	}
	b, ok := r.Get(k(100))
	if !ok || !b.Expires.Equal(t0.Add(2*time.Hour)) {
		t.Fatalf("refresh not replayed: %+v %v", b, ok)
	}
	if b, ok := r.Get(k(200)); !ok || b.Pointer != "host:1234" || b.Size != 4096 {
		t.Fatalf("pointer not recovered: %+v %v", b, ok)
	}
}

// TestCrashRecovery abandons a store without Close (the writer goroutine
// keeps running, but we reopen the directory as a crashed process would)
// and expects every write that completed to survive: the WAL is written
// synchronously on the mutation path.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: FsyncNever})
	for i := uint64(1); i <= 20; i++ {
		s.Put(k(i), []byte(fmt.Sprintf("block-%d", i)), 0, t0)
	}
	// No Close: simulate a crash. (The OS file contents are what a
	// kill -9 would leave, since puts write(2) before returning.)
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if r.Recovery().Blocks != 20 {
		t.Fatalf("recovered %d blocks, want 20", r.Recovery().Blocks)
	}
	for i := uint64(1); i <= 20; i++ {
		if b, ok := r.Get(k(i)); !ok || string(b.Data) != fmt.Sprintf("block-%d", i) {
			t.Fatalf("key %d lost after crash", i)
		}
	}
	s.Close() // quiesce the abandoned writer's goroutines
}

// TestTornTail corrupts the active WAL's last record and expects
// recovery to keep everything before it, drop the tail, and resume
// appending cleanly.
func TestTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(path string, t *testing.T)
	}{
		{"truncated", func(path string, t *testing.T) {
			st, _ := os.Stat(path)
			if err := os.Truncate(path, st.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip", func(path string, t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			s.Put(k(1), []byte("keep-me"), 0, t0)
			s.Put(k(2), []byte("torn"), 0, t0)
			s.Close()

			tc.mut(filepath.Join(dir, walName(1)), t)

			r := mustOpen(t, dir, Options{})
			rec := r.Recovery()
			if rec.Blocks != 1 || rec.TornRecords == 0 {
				t.Fatalf("recovery stats = %+v", rec)
			}
			if _, ok := r.Get(k(2)); ok {
				t.Fatal("torn record resurrected")
			}
			if b, ok := r.Get(k(1)); !ok || string(b.Data) != "keep-me" {
				t.Fatal("valid prefix lost")
			}
			// Appends must land on the truncated boundary and survive
			// another cycle.
			r.Put(k(3), []byte("after-tear"), 0, t0)
			r.Close()
			r2 := mustOpen(t, dir, Options{})
			defer r2.Close()
			if b, ok := r2.Get(k(3)); !ok || string(b.Data) != "after-tear" {
				t.Fatal("post-tear append lost")
			}
			if r2.Recovery().TornRecords != 0 {
				t.Fatalf("second recovery still torn: %+v", r2.Recovery())
			}
		})
	}
}

// TestCheckpoint fills the store, checkpoints, and expects reads, a
// compacted file set, and recovery from the segment alone to all work.
func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	payload := func(i uint64) []byte { return bytes.Repeat([]byte{byte(i)}, 64) }
	for i := uint64(1); i <= 100; i++ {
		s.Put(k(i), payload(i), 0, t0)
	}
	s.Delete(k(50))
	s.PutPointer(k(200), "peer:9", 512, t0)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// Live reads go to the segment now.
	for i := uint64(1); i <= 100; i++ {
		b, ok := s.Get(k(i))
		if i == 50 {
			if ok {
				t.Fatal("deleted key in segment")
			}
			continue
		}
		if !ok || !bytes.Equal(b.Data, payload(i)) {
			t.Fatalf("post-checkpoint read %d failed", i)
		}
	}
	// The old WAL is gone; one segment + one fresh WAL remain.
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatal("old WAL not deleted")
	}
	// Writes after the checkpoint layer over the segment.
	s.Put(k(10), []byte("updated"), 0, t0)
	s.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	rec := r.Recovery()
	if rec.Segments != 1 || rec.Blocks != 99 || rec.Pointers != 1 {
		t.Fatalf("recovery stats = %+v", rec)
	}
	if b, ok := r.Get(k(10)); !ok || string(b.Data) != "updated" {
		t.Fatal("post-checkpoint write lost")
	}
	if b, ok := r.Get(k(99)); !ok || !bytes.Equal(b.Data, payload(99)) {
		t.Fatal("segment block lost")
	}
}

// TestCheckpointConcurrent checkpoints while writers are running and
// then verifies every write survives a reopen — the retarget pass must
// not lose concurrent updates.
func TestCheckpointConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: FsyncNever})
	for i := uint64(0); i < 200; i++ {
		s.Put(k(i), []byte(fmt.Sprintf("v0-%d", i)), 0, t0)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < 200; i++ {
			s.Put(k(i), []byte(fmt.Sprintf("v1-%d", i)), 0, t0)
		}
	}()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	<-done
	for i := uint64(0); i < 200; i++ {
		if b, ok := s.Get(k(i)); !ok || string(b.Data) != fmt.Sprintf("v1-%d", i) {
			t.Fatalf("live read %d = %v after concurrent checkpoint", i, b)
		}
	}
	s.Close()
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	for i := uint64(0); i < 200; i++ {
		if b, ok := r.Get(k(i)); !ok || string(b.Data) != fmt.Sprintf("v1-%d", i) {
			t.Fatalf("recovered read %d = %v", i, b)
		}
	}
}

// TestCheckpointKeepsBlocksItCannotRead: a checkpoint that cannot read a
// payload fails instead of committing a segment without it, and every
// acknowledged block still replays from the rotation manifest.
func TestCheckpointKeepsBlocksItCannotRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	payload := func(i uint64) []byte { return bytes.Repeat([]byte{byte(i)}, 64) }
	for i := uint64(1); i <= 8; i++ {
		s.Put(k(i), payload(i), 0, t0)
	}
	// Every payload read from the WAL now fails.
	s.mu.Lock()
	seq := s.w.seq
	wal := s.files[seq]
	closed, err := os.Open(filepath.Join(dir, walName(seq)))
	if err == nil {
		closed.Close()
		s.files[seq] = closed
	}
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Error("Checkpoint returned nil with unreadable payloads")
	}
	if s.m.readErrors.Value() == 0 || s.m.ckptErrors.Value() != 1 {
		t.Errorf("read errors %d, checkpoint errors %d; want > 0 and 1",
			s.m.readErrors.Value(), s.m.ckptErrors.Value())
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*")); len(segs) != 0 {
		t.Errorf("segment files left behind: %v", segs)
	}
	s.mu.Lock()
	s.files[seq] = wal
	s.mu.Unlock()
	s.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	for i := uint64(1); i <= 8; i++ {
		if b, ok := r.Get(k(i)); !ok || !bytes.Equal(b.Data, payload(i)) {
			t.Errorf("acked block %d lost after the failed checkpoint", i)
		}
	}
}

// TestAutoCheckpoint drives the WAL past the threshold through the
// public API and expects a background checkpoint to compact it.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: FsyncNever, CheckpointBytes: 32 << 10})
	for i := uint64(0); i < 200; i++ {
		s.Put(k(i%20), bytes.Repeat([]byte{byte(i)}, 1024), 0, t0)
	}
	segSeq := func() uint64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.man.segSeq
	}
	deadline := time.Now().Add(5 * time.Second)
	for segSeq() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if segSeq() == 0 {
		t.Fatal("no auto checkpoint after exceeding threshold")
	}
	s.Close()
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if r.Recovery().Blocks != 20 {
		t.Fatalf("recovered %d blocks, want 20", r.Recovery().Blocks)
	}
}

// TestIdentityRoundTrip pins the IDENTITY file: save, reload, and
// corruption handling.
func TestIdentityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if _, ok := s.LoadIdentity(); ok {
		t.Fatal("identity present in fresh dir")
	}
	id := k(424242)
	if err := s.SaveIdentity(id); err != nil {
		t.Fatalf("SaveIdentity: %v", err)
	}
	got, ok := s.LoadIdentity()
	if !ok || got != id {
		t.Fatalf("LoadIdentity = (%s, %v)", got.Short(), ok)
	}
	// A corrupt identity is treated as absent, never adopted.
	path := filepath.Join(dir, identityName)
	b, _ := os.ReadFile(path)
	b[10] ^= 0xff
	os.WriteFile(path, b, 0o644)
	if _, ok := s.LoadIdentity(); ok {
		t.Fatal("corrupt identity accepted")
	}
}

// TestReadInto pins the allocation-free read path's contract.
func TestReadInto(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	s.Put(k(1), []byte("payload"), 0, t0)
	s.PutPointer(k(2), "addr", 10, t0)

	buf := make([]byte, 64)
	n, ok := s.ReadInto(k(1), buf)
	if !ok || string(buf[:n]) != "payload" {
		t.Fatalf("ReadInto = (%d, %v)", n, ok)
	}
	if n, ok := s.ReadInto(k(1), buf[:3]); ok || n != 7 {
		t.Fatalf("short buffer = (%d, %v), want (7, false)", n, ok)
	}
	if _, ok := s.ReadInto(k(2), buf); ok {
		t.Fatal("ReadInto served a pointer")
	}
	if _, ok := s.ReadInto(k(3), buf); ok {
		t.Fatal("ReadInto served an absent key")
	}
}

// TestEmptyValues pins zero-length payloads through the full cycle.
func TestEmptyValues(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put(k(1), nil, 0, t0)
	if b, ok := s.Get(k(1)); !ok || len(b.Data) != 0 {
		t.Fatalf("empty block = %+v %v", b, ok)
	}
	s.Close()
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if b, ok := r.Get(k(1)); !ok || len(b.Data) != 0 {
		t.Fatalf("empty block lost: %+v %v", b, ok)
	}
}

// TestFsyncPolicies exercises each policy end to end (the durability
// distinction needs real power loss to observe; this pins the API and
// that writes complete under each).
func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Fsync: p, FsyncInterval: 5 * time.Millisecond})
		for i := uint64(0); i < 10; i++ {
			s.Put(k(i), []byte("x"), 0, t0)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("policy %d Flush: %v", p, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("policy %d Close: %v", p, err)
		}
		r := mustOpen(t, dir, Options{})
		if r.Recovery().Blocks != 10 {
			t.Fatalf("policy %d recovered %d", p, r.Recovery().Blocks)
		}
		r.Close()
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{
		"": FsyncAlways, "always": FsyncAlways,
		"interval": FsyncInterval, "never": FsyncNever,
	} {
		if got, err := ParseFsyncPolicy(s); err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = (%v, %v)", s, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestCrashLoop is the soak: repeated abandon-and-reopen cycles with
// writes in flight, verifying no acknowledged write is ever lost. The
// duration is gated by D2_DISK_SOAK (used by scripts/verify.sh disk).
func TestCrashLoop(t *testing.T) {
	dur := 500 * time.Millisecond
	if env := os.Getenv("D2_DISK_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("D2_DISK_SOAK: %v", err)
		}
		dur = d
	}
	dir := t.TempDir()
	deadline := time.Now().Add(dur)
	acked := map[uint64]string{}
	var i uint64
	cycles := 0
	for time.Now().Before(deadline) {
		s := mustOpen(t, dir, Options{Fsync: FsyncNever, CheckpointBytes: 64 << 10})
		// Everything acknowledged before the last "crash" must be back.
		for key, val := range acked {
			if b, ok := s.Get(k(key)); !ok || string(b.Data) != val {
				t.Fatalf("cycle %d: acked key %d lost (ok=%v)", cycles, key, ok)
			}
		}
		for j := 0; j < 50; j++ {
			i++
			val := fmt.Sprintf("cycle-%d-%d", cycles, i)
			s.Put(k(i%512), []byte(val), 0, t0)
			acked[i%512] = val
		}
		// An in-process "crash" cannot drop the page cache, so Close is
		// equivalent to abandonment here; what this loop exercises is
		// repeated recovery with checkpoints interleaved. Genuine torn
		// tails are covered by TestTornTail, FuzzWALReplay, and the
		// kill -9 e2e.
		s.Close()
		cycles++
	}
	if cycles < 2 {
		t.Fatalf("soak managed only %d cycles", cycles)
	}
	t.Logf("crash loop: %d cycles, %d writes", cycles, i)
}

// BenchmarkDiskReadInto is the 0 allocs/op gate on the indexed read
// path (scripts/verify.sh disk greps its output).
func BenchmarkDiskReadInto(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	const n = 512
	for i := uint64(0); i < n; i++ {
		s.Put(k(i), payload, 0, t0)
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.ReadInto(k(uint64(i)%n), buf); !ok {
			b.Fatal("read failed")
		}
	}
}

// BenchmarkDiskPut measures the write path (group-commit disabled so the
// numbers reflect CPU cost, not the device).
func BenchmarkDiskPut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Fsync: FsyncNever, CheckpointBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Put(k(uint64(i)%1024), payload, 0, t0)
	}
}
