package fs

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"testing"
)

// TestSlotBudgetNeverReusesLiveSlot pins §4.2's slot budget as a checked
// contract: once a directory has handed out its last slot, a create fails
// with ErrNoSlot instead of wrapping round to slot 1, which a live file
// still holds. Before, the wrapped create got keep's slot — and with keep's
// content, keep's very keys — so removing it and syncing deleted keep's
// inode. The directory starts at the end of its budget instead of running
// 65 533 creates to get there.
func TestSlotBudgetNeverReusesLiveSlot(t *testing.T) {
	v, svc := newTestVolume(t)
	ctx := context.Background()
	content := []byte("the kept file's bytes")
	if err := v.MkdirAll(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile(ctx, "/d/keep", content); err != nil {
		t.Fatal(err)
	}
	v.mu.Lock()
	st := v.state.Load()
	chain, err := v.walk(ctx, st, []string{"d"}, true)
	if err == nil {
		chain[len(chain)-1].ino.NextSlot = maxSlot
		err = v.commitChain(st, chain)
	}
	v.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	var made []string
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/d/tmp%d", i)
		err := v.WriteFile(ctx, p, content)
		if errors.Is(err, ErrNoSlot) {
			break
		}
		if err != nil {
			t.Fatalf("WriteFile(%s): %v", p, err)
		}
		made = append(made, p)
	}
	if len(made) != 1 {
		t.Errorf("%d creates succeeded from NextSlot %#x, want 1 (slot %#x, then ErrNoSlot)", len(made), maxSlot, maxSlot)
	}
	if err := v.Mkdir(ctx, "/d/sub"); !errors.Is(err, ErrNoSlot) {
		t.Errorf("Mkdir in a spent directory: %v, want ErrNoSlot", err)
	}
	for _, p := range made {
		if err := v.Remove(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(ctx, svc, "testvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.ReadFile(ctx, "/d/keep")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("/d/keep after the removals = (%q, %v), want its content", got, err)
	}
	// An overwrite needs no new slot.
	if err := v.WriteFile(ctx, "/d/keep", []byte("rewritten")); err != nil {
		t.Fatalf("overwrite in a spent directory: %v", err)
	}
}
