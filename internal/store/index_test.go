package store

import (
	"sync"
	"testing"
)

// Counts exposes the cheap-scan counters to the engine parity test (both
// engines embed the index, so both promote it).
func (ix *Index[P]) Counts() (ttls, ptrs int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ttls, ix.ptrs
}

// TestIndexMedianKey pins the split rule on the bare index: the result is
// the first key at which the running byte count reaches half the arc's
// total, pointer sizes count, wrapping arcs walk from lo over the top of
// the ring, and an arc holding no bytes has no median.
func TestIndexMedianKey(t *testing.T) {
	var mu sync.RWMutex
	ix := NewIndex(&mu, func(int) ([]byte, bool) { return nil, true })
	for _, e := range []struct {
		k    uint64
		size int64
		ptr  bool
	}{{10, 100, false}, {20, 100, false}, {30, 600, true}, {40, 0, false}, {250, 200, false}} {
		ent := &Entry[int]{Size: e.size}
		if e.ptr {
			ent.Pointer = "peer"
		}
		ix.Set(ck(e.k), ent)
	}
	for _, tc := range []struct {
		name   string
		lo, hi uint64
		want   uint64
		found  bool
	}{
		{"whole ring", 0, 0, 30, true},           // total 1000: 100, 200, 800 ≥ 500
		{"data only", 5, 25, 10, true},           // total 200: 100 ≥ 100
		{"pointer counts", 15, 35, 30, true},     // total 700: 100, 700 ≥ 350
		{"wraps", 35, 15, 250, true},             // 40, 250, 10: total 300: 0, 200 ≥ 150
		{"wraps to low side", 251, 25, 10, true}, // 10, 20: total 200
		{"zero bytes", 35, 45, 0, false},         // only the empty block
		{"empty arc", 100, 200, 0, false},
	} {
		got, found := ix.MedianKey(ck(tc.lo), ck(tc.hi))
		if found != tc.found || (found && got != ck(tc.want)) {
			t.Errorf("%s: MedianKey(%d, %d] = (%s, %v), want (%d, %v)",
				tc.name, tc.lo, tc.hi, got.Short(), found, tc.want, tc.found)
		}
	}
}
