package d2_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	d2 "github.com/defragdht/d2"
	"github.com/defragdht/d2/internal/fs"
)

// The durable-storage e2e runs REAL d2node processes (the test binary
// re-executes itself as a node when D2_E2E_NODE=1, so kill -9 is a
// genuine process death, not an in-process simulation): a 3-node TCP
// ring on disk engines, traffic in flight, one node killed with SIGKILL
// mid-stream, reads served from replicas during the outage, and the
// restarted node recovering its arc — same ring ID, blocks replayed
// from the WAL, payloads byte-verified — with zero acknowledged writes
// lost.

// TestMain intercepts the re-exec: with D2_E2E_NODE=1 the binary is a
// DHT node, not a test run.
func TestMain(m *testing.M) {
	if os.Getenv("D2_E2E_NODE") == "1" {
		runE2ENode()
		return
	}
	os.Exit(m.Run())
}

// runE2ENode is the child-process body: start a durable TCP node from
// env config, report its address/identity/recovery on stdout, and serve
// until killed.
func runE2ENode() {
	nd, err := d2.StartNode(context.Background(),
		os.Getenv("D2_E2E_BIND"), os.Getenv("D2_E2E_SEED"),
		d2.NodeOptions{
			Replicas:          3,
			StabilizeInterval: 50 * time.Millisecond,
			RepairInterval:    200 * time.Millisecond,
			RemoveDelay:       time.Second,
			DataDir:           os.Getenv("D2_E2E_DATADIR"),
			Fsync:             os.Getenv("D2_E2E_FSYNC"),
		})
	if err != nil {
		fmt.Printf("D2E2E ERROR %v\n", err)
		os.Exit(1)
	}
	rec := nd.Recovery()
	id := nd.ID()
	fmt.Printf("D2E2E ADDR %s\n", nd.Addr())
	fmt.Printf("D2E2E ID %x\n", id[:])
	fmt.Printf("D2E2E RECOVERED blocks=%d pointers=%d records=%d torn=%d\n",
		rec.Blocks, rec.Pointers, rec.Records, rec.TornRecords)
	select {} // serve until SIGKILL
}

// nodeProc is one child node process under test control.
type nodeProc struct {
	cmd       *exec.Cmd
	addr      string
	id        string
	recovered map[string]int
}

// spawnNode re-executes the test binary as a durable node and parses its
// banner. Respawns on the same bind address retry briefly (the killed
// process's port may linger).
func spawnNode(t *testing.T, bind, seed, dataDir string) *nodeProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"D2_E2E_NODE=1",
			"D2_E2E_BIND="+bind,
			"D2_E2E_SEED="+seed,
			"D2_E2E_DATADIR="+dataDir,
			"D2_E2E_FSYNC=interval", // realistic durable config, fast enough for CI
		)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		p := &nodeProc{cmd: cmd, recovered: map[string]int{}}
		sc := bufio.NewScanner(out)
		failed := false
		for p.addr == "" || p.id == "" || len(p.recovered) == 0 {
			if !sc.Scan() {
				failed = true
				break
			}
			fields := strings.Fields(sc.Text())
			if len(fields) < 2 || fields[0] != "D2E2E" {
				continue
			}
			switch fields[1] {
			case "ADDR":
				p.addr = fields[2]
			case "ID":
				p.id = fields[2]
			case "RECOVERED":
				for _, kv := range fields[2:] {
					name, val, _ := strings.Cut(kv, "=")
					n := 0
					fmt.Sscanf(val, "%d", &n)
					p.recovered[name] = n
				}
			case "ERROR":
				failed = true
			}
		}
		if !failed {
			// Keep draining so the child never blocks on a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			t.Cleanup(func() {
				if p.cmd.Process != nil {
					_ = p.cmd.Process.Kill()
					_, _ = p.cmd.Process.Wait()
				}
			})
			return p
		}
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		if time.Now().After(deadline) {
			t.Fatalf("node on %s failed to start before deadline", bind)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// kill9 delivers SIGKILL — the crash under test — and reaps the child.
func (p *nodeProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_, _ = p.cmd.Process.Wait()
}

func TestDiskNodeCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real node processes")
	}
	ctx := context.Background()

	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	n1 := spawnNode(t, "127.0.0.1:0", "", dirs[0])
	n2 := spawnNode(t, "127.0.0.1:0", n1.addr, dirs[1])
	n3 := spawnNode(t, "127.0.0.1:0", n1.addr, dirs[2])

	client, err := d2.ConnectTCP([]string{n1.addr, n3.addr}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitRing(t, ctx, client, 3)

	// Write a volume of blocks and remember every acknowledged payload.
	rng := rand.New(rand.NewPCG(7, 9))
	acked := map[d2.Key][]byte{}
	var ackedMu sync.Mutex
	putOne := func(i uint64) error {
		var k d2.Key
		for j := range k {
			k[j] = byte(rng.Uint64())
		}
		data := make([]byte, 256+rng.IntN(4096))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := client.Put(pctx, k, data); err != nil {
			return err
		}
		ackedMu.Lock()
		acked[k] = data
		ackedMu.Unlock()
		return nil
	}
	for i := uint64(0); i < 150; i++ {
		if err := putOne(i); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Kill node 2 with traffic in flight: a writer goroutine keeps
	// putting while the SIGKILL lands. Only writes whose Put returned
	// success count as acknowledged.
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := uint64(1000); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = putOne(i) // failures during the outage are expected
		}
	}()
	time.Sleep(100 * time.Millisecond)
	n2.kill9(t)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	writerWG.Wait()

	// During the outage every acknowledged block must still be readable
	// from the survivors' replicas.
	ackedMu.Lock()
	snapshot := make(map[d2.Key][]byte, len(acked))
	for k, v := range acked {
		snapshot[k] = v
	}
	ackedMu.Unlock()
	verifyAll(t, ctx, client, snapshot, "during outage")

	// Restart the killed node on its old data directory: it must come
	// back with the same ring identity and a non-empty recovered arc.
	n2b := spawnNode(t, n2.addr, n1.addr, dirs[1])
	if n2b.id != n2.id {
		t.Fatalf("restarted node changed identity: %s -> %s", n2.id[:16], n2b.id[:16])
	}
	if n2b.recovered["blocks"] == 0 {
		t.Fatalf("restarted node recovered no blocks: %v", n2b.recovered)
	}
	t.Logf("restart recovered %d blocks, %d records (%d torn) with identity intact",
		n2b.recovered["blocks"], n2b.recovered["records"], n2b.recovered["torn"])
	waitRing(t, ctx, client, 3)

	// With the ring whole again, every acknowledged write must verify
	// byte-for-byte (recovery CRC-checks each record it replays; this
	// checks the payloads end to end).
	verifyAll(t, ctx, client, snapshot, "after restart")
}

// waitRing polls until the client sees n ring members.
func waitRing(t testing.TB, ctx context.Context, client *d2.Client, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		wctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		members, err := client.WalkRing(wctx)
		cancel()
		if err == nil && len(members) == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never reached %d members (last: %d, err=%v)", n, len(members), err)
		}
		time.Sleep(150 * time.Millisecond)
	}
}

// verifyAll reads every acknowledged block, retrying transient failures
// (ownership may be moving during heal), and byte-compares payloads.
func verifyAll(t *testing.T, ctx context.Context, client *d2.Client, acked map[d2.Key][]byte, phase string) {
	t.Helper()
	for k, want := range acked {
		var got []byte
		var err error
		deadline := time.Now().Add(15 * time.Second)
		for {
			gctx, cancel := context.WithTimeout(ctx, 3*time.Second)
			got, err = client.Get(gctx, k)
			cancel()
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("%s: acked block %x... unreadable: %v", phase, k[:6], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: acked block %x... corrupted (%d vs %d bytes)", phase, k[:6], len(got), len(want))
		}
	}
}

// TestDiskNodeCrashMidMultiPut kills a durable node while a volume writer
// is saving through the batched write path (Sync's PutMany, the stream
// writer's batches). Every save whose Sync returned nil must read back
// byte for byte through a fresh handle once the node has restarted — and
// a save that was not acknowledged is either absent or whole, never a
// published root over missing blocks: the root goes last, and a batch
// torn on the killed node's disk replays only its intact records.
func TestDiskNodeCrashMidMultiPut(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real node processes")
	}
	ctx := context.Background()
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	n1 := spawnNode(t, "127.0.0.1:0", "", dirs[0])
	n2 := spawnNode(t, "127.0.0.1:0", n1.addr, dirs[1])
	n3 := spawnNode(t, "127.0.0.1:0", n1.addr, dirs[2])
	client, err := d2.ConnectTCP([]string{n1.addr, n3.addr}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitRing(t, ctx, client, 3)

	pub, priv, err := d2.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	vol, err := client.CreateVolume(ctx, "crash", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// One save: a fresh directory, six files of 1–5 blocks and one
	// streamed file of 40, then Sync. It reports the files it wrote and
	// whether the Sync acknowledged them.
	rng := rand.New(rand.NewPCG(11, 13))
	type file struct {
		path string
		data []byte
	}
	content := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		return b
	}
	save := func(s int) (files []file, acked bool) {
		octx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		dir := fmt.Sprintf("/save-%04d", s)
		if err := vol.Mkdir(octx, dir); err != nil {
			return nil, false
		}
		for f := 0; f < 6; f++ {
			fl := file{fmt.Sprintf("%s/f%d", dir, f), content(1000 + rng.IntN(40_000))}
			if err := vol.WriteFile(octx, fl.path, fl.data); err != nil {
				return files, false
			}
			files = append(files, fl)
		}
		fl := file{dir + "/stream", content(40 * 8192)}
		if w, err := vol.WriteStream(octx, fl.path); err == nil {
			_, werr := w.Write(fl.data)
			if cerr := w.Close(); werr == nil && cerr == nil {
				files = append(files, fl)
			}
		}
		return files, vol.Sync(octx) == nil
	}

	var acked, unacked []file
	record := func(files []file, ok bool) {
		if ok {
			acked = append(acked, files...)
		} else {
			unacked = append(unacked, files...)
		}
	}
	s := 0
	for ; s < 5; s++ {
		files, ok := save(s)
		if !ok {
			t.Fatalf("save %d on a healthy ring was not acknowledged", s)
		}
		record(files, ok)
	}

	// SIGKILL lands while saves are in flight.
	killed := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		n2.kill9(t)
		close(killed)
	}()
	for deadline := time.Now().Add(600 * time.Millisecond); time.Now().Before(deadline); s++ {
		record(save(s))
	}
	<-killed
	t.Logf("%d saves, %d files acknowledged, %d not", s, len(acked), len(unacked))

	n2b := spawnNode(t, n2.addr, n1.addr, dirs[1])
	if n2b.id != n2.id || n2b.recovered["blocks"] == 0 {
		t.Fatalf("restart: identity %s -> %s, recovered %v", n2.id[:16], n2b.id[:16], n2b.recovered)
	}
	t.Logf("restart recovered %d blocks, %d records (%d torn)",
		n2b.recovered["blocks"], n2b.recovered["records"], n2b.recovered["torn"])
	waitRing(t, ctx, client, 3)

	// The restarted node missed every root update of its downtime, and
	// repair compares keys, not versions, so it would go on serving the
	// root it recovered (ROADMAP direction 3, root-block monotonicity). The
	// writer's next Sync puts the current root on all three again.
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		octx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := vol.Mkdir(octx, "/after-restart")
		if err == nil || errors.Is(err, fs.ErrExist) {
			err = vol.Sync(octx)
		}
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer could not publish after the restart: %v", err)
		}
	}

	reader, err := d2.ConnectTCP([]string{n1.addr, n3.addr}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	read := func(path string) ([]byte, error) {
		// A fresh handle per attempt: nothing cached, the current root.
		var data []byte
		var err error
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(100 * time.Millisecond) {
			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			var ro *d2.Volume
			if ro, err = reader.OpenVolume(rctx, "crash", pub, nil, d2.VolumeOptions{}); err == nil {
				data, err = ro.ReadFile(rctx, path)
			}
			cancel()
			if err == nil || errors.Is(err, fs.ErrNotExist) || time.Now().After(deadline) {
				return data, err
			}
		}
	}
	for _, fl := range acked {
		got, err := read(fl.path)
		if err != nil {
			t.Fatalf("acknowledged file %s unreadable after restart: %v", fl.path, err)
		}
		if !bytes.Equal(got, fl.data) {
			t.Fatalf("acknowledged file %s corrupted (%d vs %d bytes)", fl.path, len(got), len(fl.data))
		}
	}
	for _, fl := range unacked {
		got, err := read(fl.path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Never published.
		case err != nil:
			t.Fatalf("unacknowledged file %s is published but unreadable: %v", fl.path, err)
		case !bytes.Equal(got, fl.data):
			t.Fatalf("unacknowledged file %s is published with other content (%d vs %d bytes)", fl.path, len(got), len(fl.data))
		}
	}
}
