package wire

import "testing"

// TestPayloadClasses: sizes up to 8 KB come from power-of-two classes
// of 1–8 KB; larger ones are exact and never pooled.
func TestPayloadClasses(t *testing.T) {
	for _, c := range []struct{ n, cap int }{
		{0, 1 << 10}, {1, 1 << 10}, {1 << 10, 1 << 10}, {1<<10 + 1, 2 << 10},
		{3000, 4 << 10}, {8 << 10, 8 << 10}, {8<<10 + 1, 8<<10 + 1}, {1 << 20, 1 << 20},
	} {
		b := Payload(c.n)
		if len(b) != c.n || cap(b) != c.cap {
			t.Errorf("Payload(%d): len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.cap)
		}
		ReleasePayload(b)
	}
}

// TestReleaseRejectsForeignCapacity: a buffer whose capacity is not
// exactly a class size never enters the pool.
func TestReleaseRejectsForeignCapacity(t *testing.T) {
	for _, b := range [][]byte{make([]byte, 1500, 2000), make([]byte, 16<<10), make([]byte, 0, 100), nil} {
		ReleasePayload(b)
		if cap(b) == 0 {
			continue
		}
		for i := 0; i < 16; i++ {
			if got := Payload(len(b)); cap(got) > 0 && &got[:1][0] == &b[:1][0] {
				t.Fatalf("Payload handed out a released buffer of capacity %d", cap(b))
			}
		}
	}
}
