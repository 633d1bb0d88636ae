package store

import (
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

func ck(v uint64) keys.Key {
	var key keys.Key
	key[keys.Size-1] = byte(v)
	return key
}

// TestCheapCounters pins the ttls/ptrs bookkeeping that lets
// SweepExpired and StalePointers skip their full-tree scans: every
// mutation path must keep the counters exact, or a sweep would silently
// stop finding work.
func TestCheapCounters(t *testing.T) {
	s := New()
	now := time.Unix(1000, 0)

	check := func(step string, ttls, ptrs int) {
		t.Helper()
		if gotTTLs, gotPtrs := s.Counts(); gotTTLs != ttls || gotPtrs != ptrs {
			t.Fatalf("%s: ttls=%d ptrs=%d, want %d/%d", step, gotTTLs, gotPtrs, ttls, ptrs)
		}
	}

	s.Put(ck(1), []byte("a"), time.Minute, now)
	check("put with ttl", 1, 0)
	s.Put(ck(1), []byte("b"), 0, now)
	check("replace clears ttl", 0, 0)
	s.Put(ck(1), []byte("c"), time.Minute, now)
	check("replace restores ttl", 1, 0)

	s.PutPointer(ck(2), "addr", 10, now)
	check("pointer", 1, 1)
	s.PutPointer(ck(2), "addr2", 10, now)
	check("pointer replace", 1, 1)
	s.Put(ck(2), []byte("d"), 0, now)
	check("data replaces pointer", 1, 0)

	s.Refresh(ck(2), time.Minute, now)
	check("refresh adds ttl", 2, 0)
	s.Refresh(ck(2), 0, now)
	check("refresh clears ttl", 1, 0)

	s.Delete(ck(1))
	check("delete drops ttl", 0, 0)

	s.PutPointer(ck(3), "addr", 10, now)
	s.Delete(ck(3))
	check("delete drops pointer", 0, 0)

	s.Put(ck(4), []byte("e"), time.Minute, now)
	if n := s.SweepExpired(now.Add(time.Hour)); n != 1 {
		t.Fatalf("sweep = %d", n)
	}
	check("sweep drops ttl", 0, 0)

	// The early exits themselves: a store with zero counters must not
	// find (or scan for) anything.
	if n := s.SweepExpired(now.Add(time.Hour)); n != 0 {
		t.Errorf("empty sweep = %d", n)
	}
	if got := s.StalePointers(now.Add(time.Hour)); got != nil {
		t.Errorf("empty stale pointers = %v", got)
	}
}
