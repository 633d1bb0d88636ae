package node

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/store/disk"
	"github.com/defragdht/d2/internal/transport"
)

// hammerKey is the i-th key of the hammer's run; all sort together in
// (hammerLo, hammerHi].
func hammerKey(i int) keys.Key {
	var k keys.Key
	k[0], k[1] = 0x42, byte(i+1)
	return k
}

var hammerLo, hammerHi = hammerKey(-1), func() keys.Key { k := hammerKey(0); k[1] = 0xff; return k }()

// hammerBlock is version ver of key i's block: a header naming both, then
// bytes that depend on both and on their position, so a block that mixes
// two reads' bytes fails hammerCheck. Odd keys are 3 000 bytes (the 4 KB
// class), even ones a full 8 KB block.
func hammerBlock(i int, ver uint64) []byte {
	n := 8 << 10
	if i%2 == 1 {
		n = 3000
	}
	b := make([]byte, n)
	b[0] = byte(i)
	binary.BigEndian.PutUint64(b[1:9], ver)
	for j := 9; j < n; j++ {
		b[j] = byte(uint64(j)*7 + ver*13 + uint64(i))
	}
	return b
}

// hammerCheck verifies that data is some whole version of key i's block.
func hammerCheck(i int, data []byte) error {
	if len(data) < 9 {
		return fmt.Errorf("key %d: %d bytes", i, len(data))
	}
	ver := binary.BigEndian.Uint64(data[1:9])
	want := hammerBlock(i, ver)
	if len(data) != len(want) || data[0] != byte(i) {
		return fmt.Errorf("key %d: %d bytes naming key %d, want %d bytes", i, len(data), data[0], len(want))
	}
	for j := range want {
		if data[j] != want[j] {
			return fmt.Errorf("key %d version %d: byte %d is %#x, want %#x", i, ver, j, data[j], want[j])
		}
	}
	return nil
}

// TestServedPayloadsSurviveRecycling hammers the read-serving path of a
// durable node over TCP: 8 readers fetch the same keys through Get,
// MultiGet (each naming one key twice) and FetchRange and check every
// byte, while a writer overwrites those keys and checkpoints move them
// between files. Every payload served is a pooled buffer that the
// transport returns after the frame's write; returned any earlier, another
// read's pread would overwrite bytes still on their way out, and a reader
// would see a block mixing two reads.
func TestServedPayloadsSurviveRecycling(t *testing.T) {
	const nkeys, readers = 24, 8
	st, err := disk.Open(t.TempDir(), disk.Options{Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	cfg.Store = st
	n := Start(srv, cfg)
	defer n.Close()
	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	to := n.Self().Addr
	ctx := context.Background()

	put := func(i int, ver uint64) error {
		_, err := transport.Expect[*transport.PutResp](cli.Call(ctx, to, &transport.PutReq{Key: hammerKey(i), Data: hammerBlock(i, ver)}))
		return err
	}
	for i := 0; i < nkeys; i++ {
		if err := put(i, 0); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var failed atomic.Bool
	fail := func(format string, a ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, a...)
		}
		select {
		case <-stop:
		default:
			close(stop)
		}
	}
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 1))
			for op := 0; ; op++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := hammerRead(ctx, cli, to, op%3, rng, nkeys); err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ver := uint64(1); ; ver++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := put(int(ver)%nkeys, ver); err != nil {
				fail("writer: %v", err)
				return
			}
			if ver%64 == 0 {
				if err := st.Checkpoint(); err != nil {
					fail("checkpoint: %v", err)
					return
				}
			}
		}
	}()
	select {
	case <-stop:
	case <-time.After(1500 * time.Millisecond):
		close(stop)
	}
	wg.Wait()
	if reads.Load() == 0 && !failed.Load() {
		t.Fatal("no read completed")
	}
	t.Logf("%d verified reads", reads.Load())
}

// hammerRead runs one verified read of kind 0 (Get), 1 (MultiGet of 8
// keys, the first named twice) or 2 (FetchRange of every key).
func hammerRead(ctx context.Context, cli transport.Transport, to transport.Addr, kind int, rng *rand.Rand, nkeys int) error {
	switch kind {
	case 0:
		i := rng.IntN(nkeys)
		resp, err := transport.Expect[*transport.GetResp](cli.Call(ctx, to, &transport.GetReq{Key: hammerKey(i)}))
		if err != nil {
			return err
		}
		if !resp.Found {
			return fmt.Errorf("get: key %d not found", i)
		}
		return hammerCheck(i, resp.Data)
	case 1:
		idx := make([]int, 8)
		ks := make([]keys.Key, 0, 9)
		for j := range idx {
			idx[j] = rng.IntN(nkeys)
			ks = append(ks, hammerKey(idx[j]))
		}
		idx = append(idx, idx[0])
		ks = append(ks, ks[0])
		resp, err := transport.Expect[*transport.MultiGetResp](cli.Call(ctx, to, &transport.MultiGetReq{Keys: ks}))
		if err != nil {
			return err
		}
		if len(resp.Items) != len(ks) {
			return fmt.Errorf("multi_get: %d items for %d keys", len(resp.Items), len(ks))
		}
		for j, it := range resp.Items {
			if !it.Found {
				return fmt.Errorf("multi_get: key %d not found", idx[j])
			}
			if err := hammerCheck(idx[j], it.Data); err != nil {
				return fmt.Errorf("multi_get: %w", err)
			}
		}
	case 2:
		resp, err := transport.Expect[*transport.FetchRangeResp](cli.Call(ctx, to, &transport.FetchRangeReq{Lo: hammerLo, Hi: hammerHi}))
		if err != nil {
			return err
		}
		if len(resp.Items) != nkeys {
			return fmt.Errorf("fetch_range: %d items, want %d", len(resp.Items), nkeys)
		}
		for j, it := range resp.Items {
			if err := hammerCheck(j, it.Data); err != nil {
				return fmt.Errorf("fetch_range: %w", err)
			}
		}
	}
	return nil
}

// TestMultiGetDuplicateKeyDistinctBuffers: a MultiGet naming one key twice
// answers with two buffers of its own — on either engine — so the
// transport, releasing every owned payload once, never releases one twice.
func TestMultiGetDuplicateKeyDistinctBuffers(t *testing.T) {
	st, err := disk.Open(t.TempDir(), disk.Options{Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, e := range []struct {
		name string
		st   store.Engine
	}{{"mem", store.New()}, {"disk", st}} {
		t.Run(e.name, func(t *testing.T) {
			cfg := testConfig(1)
			cfg.Store = e.st
			n := Start(transport.NewMemNetwork(0).NewEndpoint(), cfg)
			defer n.Close()
			k := hammerKey(0)
			e.st.Put(k, hammerBlock(0, 7), 0, time.Now())
			resp := n.handleMultiGet(context.Background(), &transport.MultiGetReq{Keys: []keys.Key{k, k}}).(*transport.MultiGetResp)
			if len(resp.Items) != 2 {
				t.Fatalf("%d items, want 2", len(resp.Items))
			}
			a, b := resp.Items[0].Data, resp.Items[1].Data
			for _, d := range [][]byte{a, b} {
				if err := hammerCheck(0, d); err != nil {
					t.Fatal(err)
				}
			}
			if &a[0] == &b[0] {
				t.Fatal("both items share one buffer")
			}
		})
	}
}
