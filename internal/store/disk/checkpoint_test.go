package disk

import (
	"fmt"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/transport"
)

// name is a test key's number, k's inverse for keys below 256.
func name(key keys.Key) string { return fmt.Sprint(key[keys.Size-1]) }

// TestCheckpointKeepsPointerDeadline: a pointer given a removal deadline
// keeps it through a checkpoint and a reopen, so it does not outlive its
// removal.
func TestCheckpointKeepsPointerDeadline(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.PutPointer(k(1), "peer:1", 10, t0)
	if !s.Refresh(k(1), time.Hour, t0) {
		t.Fatal("Refresh found no pointer")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	s.mu.RLock()
	var expires int64
	e, ok := s.Peek(k(1))
	if ok {
		expires = e.Expires
	}
	s.mu.RUnlock()
	if want := t0.Add(time.Hour).UnixNano(); !ok || expires != want {
		t.Fatalf("after reopen: found %v, expires %d, want %d", ok, expires, want)
	}
}

// TestCheckpointRetargetsByLocation lands a Refresh, an overwrite, a
// delete and a pointer install between a checkpoint's snapshot and its
// commit. The retarget pass moves an entry to the segment only while its
// location is still the one the snapshot copied, so every key serves its
// newest state, and replays it after a reopen.
func TestCheckpointRetargetsByLocation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	refreshed, overwritten, deleted, pointed, untouched := k(1), k(2), k(3), k(4), k(5)
	old := func(key keys.Key) string { return "old-" + name(key) }
	for _, key := range []keys.Key{refreshed, overwritten, deleted, untouched} {
		s.Put(key, []byte(old(key)), 0, t0)
	}
	s.PutPointer(k(6), "peer:6", 66, t0) // a pointer the snapshot copies

	s.ckptSnapped = func() {
		s.Refresh(refreshed, time.Hour, t0)
		s.Put(overwritten, []byte("new"), 0, t0)
		s.Delete(deleted)
		s.PutPointer(pointed, "peer:4", 44, t0)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// Where each entry's payload lives now: the refreshed and untouched
	// blocks in the segment, the overwrite in the new WAL.
	s.mu.RLock()
	segSeq, walSeq := s.man.segSeq, s.w.seq
	fileOf := func(key keys.Key) uint64 {
		e, _ := s.Peek(key)
		return uint64(e.Payload.file)
	}
	for key, want := range map[keys.Key]uint64{refreshed: segSeq, untouched: segSeq, overwritten: walSeq} {
		if got := fileOf(key); got != want {
			t.Errorf("key %s lives in file %d, want %d (segment %d, WAL %d)", name(key), got, want, segSeq, walSeq)
		}
	}
	s.mu.RUnlock()

	verify := func(stage string, s *Store) {
		t.Helper()
		want := map[keys.Key]string{refreshed: old(refreshed), overwritten: "new", untouched: old(untouched)}
		for key, data := range want {
			if b, ok := s.Get(key); !ok || string(b.Data) != data {
				t.Errorf("%s: key %s = %v, want data %q", stage, name(key), b, data)
			}
		}
		if b, ok := s.Get(refreshed); !ok || !b.Expires.Equal(t0.Add(time.Hour)) {
			t.Errorf("%s: refreshed key lost its deadline: %+v", stage, b)
		}
		if _, ok := s.Get(deleted); ok {
			t.Errorf("%s: deleted key is back", stage)
		}
		for key, ptr := range map[keys.Key]transport.Addr{pointed: "peer:4", k(6): "peer:6"} {
			if b, ok := s.Get(key); !ok || b.Pointer != ptr {
				t.Errorf("%s: key %s = %+v, want a pointer to %s", stage, name(key), b, ptr)
			}
		}
		if s.Len() != 5 || s.Bytes() != int64(2*len(old(untouched))+len("new")) {
			t.Errorf("%s: %d entries, %d bytes", stage, s.Len(), s.Bytes())
		}
	}
	verify("live", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	verify("reopened", r)
}
