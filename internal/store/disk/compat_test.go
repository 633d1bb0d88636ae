package disk

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

// The directory testdata/v1 was written by writeFixture on the engine
// whose index held one heap-allocated entry per key, before entries went
// into the tree by value with a 16-byte location. Opening it pins that
// the on-disk format did not change: a segment, a WAL layered over it,
// data, pointers, deadlines, deletes and the ring identity. To rebuild it
// (only ever from an engine that writes this format), empty the directory
// and run, from the repository root,
//
//	D2_WRITE_DISK_FIXTURE=$PWD/internal/store/disk/testdata/v1 go test -run TestOpensV1Directory ./internal/store/disk/

var (
	fixtureNow = time.Unix(1_700_000_000, 0)
	fixtureID  = keys.HashString("fixture node")
)

// fixtureData is block i's payload: i bytes of a pattern that names i.
func fixtureData(i uint64) []byte { return bytes.Repeat([]byte{byte(i), 0xd2}, int(i))[:i] }

// writeFixture writes the v1 directory: blocks 1..24 with a deadline on
// 5 and a pointer at 100, a delete and a refresh, then a checkpoint, and
// over the segment an overwrite, a second pointer, a delete, a refresh
// and a new block with a deadline.
func writeFixture(t *testing.T, dir string) {
	s := mustOpen(t, dir, Options{})
	for i := uint64(1); i <= 24; i++ {
		ttl := time.Duration(0)
		if i == 5 {
			ttl = time.Hour
		}
		s.Put(k(i), fixtureData(i), ttl, fixtureNow)
	}
	s.PutPointer(k(100), "peer:100", 4096, fixtureNow)
	s.Delete(k(7))
	s.Refresh(k(9), 2*time.Hour, fixtureNow)
	if err := s.SaveIdentity(fixtureID); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Put(k(3), []byte("overwritten after the checkpoint"), 0, fixtureNow)
	s.PutPointer(k(101), "peer:101", 8192, fixtureNow.Add(time.Minute))
	s.Delete(k(11))
	s.Refresh(k(12), 3*time.Hour, fixtureNow)
	s.Put(k(30), fixtureData(30), 4*time.Hour, fixtureNow)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpensV1Directory opens a copy of testdata/v1 and expects the state
// writeFixture left, then writes, checkpoints and reopens on top of it.
func TestOpensV1Directory(t *testing.T) {
	if out := os.Getenv("D2_WRITE_DISK_FIXTURE"); out != "" {
		writeFixture(t, out)
		return
	}
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", "v1", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture files: %v %v", files, err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	check := func(stage string, s *Store) {
		t.Helper()
		for i := uint64(1); i <= 30; i++ {
			b, ok := s.Get(k(i))
			switch {
			case i == 7 || i == 11 || (i > 24 && i < 30):
				if ok {
					t.Errorf("%s: deleted or never written key %d is present", stage, i)
				}
				continue
			case !ok:
				t.Errorf("%s: key %d lost", stage, i)
				continue
			}
			want := fixtureData(i)
			if i == 3 {
				want = []byte("overwritten after the checkpoint")
			}
			if !bytes.Equal(b.Data, want) || b.Size != int64(len(want)) {
				t.Errorf("%s: key %d = %q (size %d), want %q", stage, i, b.Data, b.Size, want)
			}
			var deadline time.Time
			switch i {
			case 5:
				deadline = fixtureNow.Add(time.Hour)
			case 9:
				deadline = fixtureNow.Add(2 * time.Hour)
			case 12:
				deadline = fixtureNow.Add(3 * time.Hour)
			case 30:
				deadline = fixtureNow.Add(4 * time.Hour)
			}
			if !b.Expires.Equal(deadline) {
				t.Errorf("%s: key %d deadline %v, want %v", stage, i, b.Expires, deadline)
			}
		}
		for i, want := range map[uint64]struct {
			to    string
			size  int64
			since time.Time
		}{100: {"peer:100", 4096, fixtureNow}, 101: {"peer:101", 8192, fixtureNow.Add(time.Minute)}} {
			b, ok := s.Get(k(i))
			if !ok || string(b.Pointer) != want.to || b.Size != want.size || !b.PointerSince.Equal(want.since) || b.Data != nil {
				t.Errorf("%s: pointer %d = %+v, want %+v", stage, i, b, want)
			}
		}
		if id, ok := s.LoadIdentity(); !ok || id != fixtureID {
			t.Errorf("%s: identity %s (%v), want %s", stage, id.Short(), ok, fixtureID.Short())
		}
		if ptrs := len(s.StalePointers(fixtureNow.Add(time.Hour))); s.Len() != 25 || ptrs != 2 {
			t.Errorf("%s: %d entries, %d pointers; want 25 and 2", stage, s.Len(), ptrs)
		}
	}

	s := mustOpen(t, dir, Options{})
	if rec := s.Recovery(); rec.Segments != 1 || rec.WALs != 1 || rec.Blocks != 23 || rec.Pointers != 2 || rec.TornRecords != 0 {
		t.Errorf("recovery = %+v; want 1 segment, 1 WAL, 23 blocks, 2 pointers, no torn records", rec)
	}
	check("opened", s)
	// The engine keeps working on the old directory: a checkpoint over it
	// and a reopen leave the same state.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("checkpointed", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	check("reopened", r)
}

// TestOpenRefusesWideFileSequence: a location names its file in 32 bits,
// so a directory whose manifest names a file sequence past that fails
// Open instead of wrapping onto another file.
func TestOpenRefusesWideFileSequence(t *testing.T) {
	dir := t.TempDir()
	if err := writeManifest(dir, manifest{walSeqs: []uint64{maxSeq + 1}}); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, Options{}); err == nil {
		s.Close()
		t.Fatal("Open accepted a file sequence past 2^32-1")
	}
}
