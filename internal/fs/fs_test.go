package fs

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/defragdht/d2/internal/keys"
)

// memService is an in-memory BlockService test double.
type memService struct {
	mu     sync.Mutex
	blocks map[keys.Key][]byte
	puts   int
	gets   int
}

func newMemService() *memService {
	return &memService{blocks: make(map[keys.Key][]byte)}
}

func (m *memService) Put(_ context.Context, k keys.Key, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocks[k] = append([]byte{}, data...)
	m.puts++
	return nil
}

func (m *memService) Get(_ context.Context, k keys.Key) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets++
	data, ok := m.blocks[k]
	if !ok {
		return nil, ErrNotExist
	}
	return data, nil
}

// GetMany is one Get per key; absent keys are left out of the answer.
func (m *memService) GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	out := make(map[keys.Key][]byte, len(ks))
	for _, k := range ks {
		if data, err := m.Get(ctx, k); err == nil {
			out[k] = data
		}
	}
	return out, nil
}

func (m *memService) GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	return m.GetMany(ctx, ks)
}

func (m *memService) Remove(_ context.Context, k keys.Key) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blocks, k)
	return nil
}

func (m *memService) numBlocks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blocks)
}

var testKey = ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))

func newTestVolume(t *testing.T) (*Volume, *memService) {
	t.Helper()
	svc := newMemService()
	v, err := Create(context.Background(), svc, "testvol", testKey, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v, svc
}

func TestWriteReadSmallFile(t *testing.T) {
	v, _ := newTestVolume(t)
	ctx := context.Background()
	if err := v.WriteFile(ctx, "/hello.txt", []byte("hi there")); err != nil {
		t.Fatal(err)
	}
	data, err := v.ReadFile(ctx, "/hello.txt")
	if err != nil || string(data) != "hi there" {
		t.Fatalf("ReadFile = (%q, %v)", data, err)
	}
}

func TestWriteReadLargeFile(t *testing.T) {
	v, _ := newTestVolume(t)
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 2))
	big := make([]byte, 3*BlockSize+1234)
	for i := range big {
		big[i] = byte(rng.Uint64())
	}
	if err := v.WriteFile(ctx, "/big.bin", big); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadFile(ctx, "/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large file corrupted on round trip")
	}
	info, err := v.Stat(ctx, "/big.bin")
	if err != nil || info.Size != int64(len(big)) {
		t.Fatalf("Stat = (%+v, %v)", info, err)
	}
}

func TestMkdirAndNesting(t *testing.T) {
	v, _ := newTestVolume(t)
	ctx := context.Background()
	if err := v.MkdirAll(ctx, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile(ctx, "/a/b/c/deep.txt", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	data, err := v.ReadFile(ctx, "/a/b/c/deep.txt")
	if err != nil || string(data) != "deep" {
		t.Fatalf("nested read = (%q, %v)", data, err)
	}
	infos, err := v.ReadDir(ctx, "/a/b")
	if err != nil || len(infos) != 1 || infos[0].Name != "c" || !infos[0].IsDir {
		t.Fatalf("ReadDir = (%v, %v)", infos, err)
	}
	if err := v.Mkdir(ctx, "/a"); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate Mkdir err = %v", err)
	}
}

func TestOverwriteReplacesVersions(t *testing.T) {
	v, svc := newTestVolume(t)
	ctx := context.Background()
	big1 := bytes.Repeat([]byte{1}, 2*BlockSize)
	big2 := bytes.Repeat([]byte{2}, 2*BlockSize)
	if err := v.WriteFile(ctx, "/f", big1); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	before := svc.numBlocks()
	if err := v.WriteFile(ctx, "/f", big2); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadFile(ctx, "/f")
	if err != nil || !bytes.Equal(got, big2) {
		t.Fatalf("overwritten content wrong: %v", err)
	}
	// Old versions removed: block count must not grow.
	if after := svc.numBlocks(); after > before {
		t.Errorf("block count grew %d -> %d; old versions leaked", before, after)
	}
}

func TestRemoveFileAndDir(t *testing.T) {
	v, svc := newTestVolume(t)
	ctx := context.Background()
	if err := v.MkdirAll(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile(ctx, "/d/f", bytes.Repeat([]byte{3}, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove(ctx, "/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("removing non-empty dir: %v", err)
	}
	if err := v.Remove(ctx, "/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadFile(ctx, "/d/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("removed file still readable: %v", err)
	}
	if err := v.Remove(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Only the root block should remain.
	if n := svc.numBlocks(); n != 1 {
		t.Errorf("%d blocks remain after removing everything, want 1 (root)", n)
	}
}

func TestRenameKeepsKeysAndContent(t *testing.T) {
	v, svc := newTestVolume(t)
	ctx := context.Background()
	if err := v.MkdirAll(ctx, "/src"); err != nil {
		t.Fatal(err)
	}
	if err := v.MkdirAll(ctx, "/dst"); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte{9}, 2*BlockSize)
	if err := v.WriteFile(ctx, "/src/file", content); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	before := svc.numBlocks()
	if err := v.Rename(ctx, "/src/file", "/dst/moved"); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadFile(ctx, "/dst/moved")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("moved file unreadable: %v", err)
	}
	if _, err := v.ReadFile(ctx, "/src/file"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("old path still resolves: %v", err)
	}
	// Rename must not migrate data blocks (§4.2): block count unchanged.
	if after := svc.numBlocks(); after != before {
		t.Errorf("blocks %d -> %d across rename; data should not move", before, after)
	}
	// The moved file must remain writable at its new name.
	if err := v.WriteFile(ctx, "/dst/moved", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, err = v.ReadFile(ctx, "/dst/moved")
	if err != nil || string(got) != "tiny" {
		t.Fatalf("rewrite after rename = (%q, %v)", got, err)
	}
}

func TestRenameDirectorySubtreeReadable(t *testing.T) {
	v, _ := newTestVolume(t)
	ctx := context.Background()
	if err := v.MkdirAll(ctx, "/proj/sub"); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile(ctx, "/proj/sub/a.txt", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := v.Rename(ctx, "/proj", "/archive"); err != nil {
		t.Fatal(err)
	}
	data, err := v.ReadFile(ctx, "/archive/sub/a.txt")
	if err != nil || string(data) != "alpha" {
		t.Fatalf("read under renamed dir = (%q, %v)", data, err)
	}
	// New files under the renamed directory still work.
	if err := v.WriteFile(ctx, "/archive/sub/b.txt", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if data, err := v.ReadFile(ctx, "/archive/sub/b.txt"); err != nil || string(data) != "beta" {
		t.Fatalf("new file under renamed dir = (%q, %v)", data, err)
	}
}

func TestReaderSeesFlushedWrites(t *testing.T) {
	v, svc := newTestVolume(t)
	ctx := context.Background()
	if err := v.WriteFile(ctx, "/shared.txt", []byte("published")); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	reader, err := Open(ctx, svc, "testvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := reader.ReadFile(ctx, "/shared.txt")
	if err != nil || string(data) != "published" {
		t.Fatalf("reader sees (%q, %v)", data, err)
	}
	// Read-only volumes reject writes.
	if err := reader.WriteFile(ctx, "/x", nil); !errors.Is(err, ErrReadOnly) {
		t.Errorf("read-only write err = %v", err)
	}
}

// TestReadFileReturnsPrivateCopy: the bytes ReadFile returns are the
// caller's. Writing into them must not change what the handle serves
// next — an inline file's content lives in the handle's cached, checked
// inode, and nothing checks it again.
func TestReadFileReturnsPrivateCopy(t *testing.T) {
	v, svc := newTestVolume(t)
	ctx := context.Background()
	want := []byte("xxxxxxxxxxxx")
	if err := v.WriteFile(ctx, "/inline", want); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	reader, err := Open(ctx, svc, "testvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Volume{v, reader} {
		got, err := h.ReadFile(ctx, "/inline")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("first read = (%q, %v)", got, err)
		}
		got[0] = 'Z'
		if again, err := h.ReadFile(ctx, "/inline"); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("after the caller wrote into its result, a second read = (%q, %v), want %q", again, err, want)
		}
	}
}

// TestWriteFileKeepsPrivateCopy: WriteFile keeps what it was given, as
// os.WriteFile does. A caller reusing its buffer before Sync must not
// change the content written, nor leave blocks that fail their checks.
func TestWriteFileKeepsPrivateCopy(t *testing.T) {
	v, svc := newTestVolume(t)
	ctx := context.Background()
	buf := bytes.Repeat([]byte("0123456789abcdef"), 24<<10/16) // three blocks
	want := bytes.Clone(buf)
	if err := v.WriteFile(ctx, "/big", buf); err != nil {
		t.Fatal(err)
	}
	buf[0], buf[len(buf)-1] = 'Z', 'Z'
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	reader, err := Open(ctx, svc, "testvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reader.ReadFile(ctx, "/big"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fresh handle read %d bytes (%v); want the %d bytes WriteFile was given", len(got), err, len(want))
	}
}

func TestSignatureVerificationRejectsTamper(t *testing.T) {
	v, svc := newTestVolume(t)
	ctx := context.Background()
	if err := v.WriteFile(ctx, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Corrupt the root block in the store.
	rootKey := v.rootKey()
	svc.mu.Lock()
	data := svc.blocks[rootKey]
	data[len(data)-1] ^= 0xFF
	svc.mu.Unlock()
	_, err := Open(ctx, svc, "testvol", testKey.Public().(ed25519.PublicKey), nil, Options{})
	if err == nil {
		t.Fatal("tampered root accepted")
	}
}

func TestWriteBackBuffersUntilSync(t *testing.T) {
	v, svc := newTestVolume(t)
	ctx := context.Background()
	puts0 := svc.puts
	if err := v.WriteFile(ctx, "/buffered", []byte("lazy")); err != nil {
		t.Fatal(err)
	}
	if svc.puts != puts0 {
		t.Errorf("write hit the DHT before Sync (%d puts)", svc.puts-puts0)
	}
	// The writer still reads its own pending data.
	if data, err := v.ReadFile(ctx, "/buffered"); err != nil || string(data) != "lazy" {
		t.Fatalf("read-your-writes = (%q, %v)", data, err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if svc.puts == puts0 {
		t.Error("Sync flushed nothing")
	}
}

func TestLocalityOfFileKeys(t *testing.T) {
	// All blocks written for files in one directory must fall inside the
	// volume's key range and cluster tightly vs a hashed layout.
	v, svc := newTestVolume(t)
	ctx := context.Background()
	if err := v.MkdirAll(ctx, "/docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := v.WriteFile(ctx, fmt.Sprintf("/docs/f%d", i), bytes.Repeat([]byte{byte(i)}, 2*BlockSize))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	lo, hi := keys.VolumeRange(v.VolumeID())
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for k := range svc.blocks {
		if k.Less(lo) || !k.Less(hi) {
			t.Fatalf("block key %s outside volume range", k.Short())
		}
	}
}

func TestErrorsOnBadPaths(t *testing.T) {
	v, _ := newTestVolume(t)
	ctx := context.Background()
	if _, err := v.ReadFile(ctx, "/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
	if err := v.WriteFile(ctx, "/nodir/f", nil); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing parent: %v", err)
	}
	if err := v.MkdirAll(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadFile(ctx, "/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("reading a dir: %v", err)
	}
	if err := v.WriteFile(ctx, "/d", nil); !errors.Is(err, ErrIsDir) {
		t.Errorf("writing a dir: %v", err)
	}
	if _, err := v.ReadDir(ctx, "/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("ReadDir missing: %v", err)
	}
}

func TestManyFilesAndDirs(t *testing.T) {
	v, _ := newTestVolume(t)
	ctx := context.Background()
	for d := 0; d < 5; d++ {
		dir := fmt.Sprintf("/dir%d", d)
		if err := v.MkdirAll(ctx, dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 20; f++ {
			path := fmt.Sprintf("%s/file%02d", dir, f)
			if err := v.WriteFile(ctx, path, []byte(path)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 5; d++ {
		infos, err := v.ReadDir(ctx, fmt.Sprintf("/dir%d", d))
		if err != nil || len(infos) != 20 {
			t.Fatalf("dir%d has %d entries (%v)", d, len(infos), err)
		}
	}
	// Spot-check contents.
	data, err := v.ReadFile(ctx, "/dir3/file07")
	if err != nil || string(data) != "/dir3/file07" {
		t.Fatalf("spot check = (%q, %v)", data, err)
	}
}
