package census

import (
	"encoding/binary"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/store"
)

// rawKey builds a key byte-wise: vol selects the volume (first byte of
// the 20-byte volume region), file a path slot (first byte of the path
// region), block the 8-byte block number. Keys of one file with
// ascending blocks sort consecutively, which is the layout invariant
// the census counts runs over.
func rawKey(vol, file byte, block uint64) keys.Key {
	var k keys.Key
	k[0] = vol
	k[20] = file
	binary.BigEndian.PutUint64(k[52:60], block)
	return k
}

// wholeRingBounds classifies every entry as primary (single-node view).
func wholeRingBounds() Bounds {
	var self keys.Key
	self[0] = 0x80
	return Bounds{Self: self, Ok: true}
}

func newSweeper(t testing.TB, st store.Engine, bounds func() Bounds) *Sweeper {
	t.Helper()
	return New(Config{Store: st, Bounds: bounds, Registry: obs.New()})
}

// TestGoldenFullyLocal sweeps a fully-local layout: three files of eight
// consecutive blocks each, all primary. Every file must census as one
// run, so the fragmentation ratio is exactly 1.0.
func TestGoldenFullyLocal(t *testing.T) {
	st := store.New()
	now := time.Now()
	for file := byte(1); file <= 3; file++ {
		for b := uint64(0); b < 8; b++ {
			st.Put(rawKey(1, file, b), make([]byte, 100), 0, now)
		}
	}
	s := newSweeper(t, st, wholeRingBounds)
	s.Sweep()
	r := s.Snapshot()

	if r.PrimaryBlocks != 24 || r.PrimaryBytes != 2400 {
		t.Fatalf("primary = %d blocks / %d bytes, want 24 / 2400", r.PrimaryBlocks, r.PrimaryBytes)
	}
	if r.Files != 3 || r.Runs != 3 || r.OwnerSwitches != 0 {
		t.Fatalf("files=%d runs=%d switches=%d, want 3/3/0", r.Files, r.Runs, r.OwnerSwitches)
	}
	if got := r.FragRatio(); got != 1.0 {
		t.Fatalf("frag ratio = %v, want 1.0", got)
	}
	if len(r.Volumes) != 1 {
		t.Fatalf("volumes = %d, want 1", len(r.Volumes))
	}
	v := r.Volumes[0]
	if v.MaxRun != 8 {
		t.Fatalf("max run = %d, want 8", v.MaxRun)
	}
	// All three runs have length 8, which lands in bucket (4,8].
	var wantHist [RunBuckets]int64
	wantHist[runBucket(8)] = 3
	if v.RunHist != wantHist {
		t.Fatalf("run hist = %v, want %v", v.RunHist, wantHist)
	}
}

// TestGoldenFullyScattered sweeps the worst case: two files whose
// present blocks are all non-consecutive, so every block is its own run.
func TestGoldenFullyScattered(t *testing.T) {
	st := store.New()
	now := time.Now()
	for file := byte(1); file <= 2; file++ {
		for _, b := range []uint64{0, 2, 4, 6} {
			st.Put(rawKey(1, file, b), make([]byte, 10), 0, now)
		}
	}
	s := newSweeper(t, st, wholeRingBounds)
	s.Sweep()
	r := s.Snapshot()

	if r.Files != 2 || r.Runs != 8 || r.OwnerSwitches != 6 {
		t.Fatalf("files=%d runs=%d switches=%d, want 2/8/6", r.Files, r.Runs, r.OwnerSwitches)
	}
	if got := r.FragRatio(); got != 4.0 {
		t.Fatalf("frag ratio = %v, want 4.0", got)
	}
	v := r.Volumes[0]
	if v.MaxRun != 1 || v.RunHist[runBucket(1)] != 8 {
		t.Fatalf("max run = %d hist[0]=%d, want 1 and 8 singleton runs", v.MaxRun, v.RunHist[0])
	}
}

// TestGoldenKnownRunLengths pins the run detector on a hand-built
// layout: one file holding blocks 0-4 (a run of 5) and 10-11 (a run of
// 2), and checks both the counts and the histogram buckets they land in.
func TestGoldenKnownRunLengths(t *testing.T) {
	st := store.New()
	now := time.Now()
	for _, b := range []uint64{0, 1, 2, 3, 4, 10, 11} {
		st.Put(rawKey(1, 1, b), make([]byte, 10), 0, now)
	}
	s := newSweeper(t, st, wholeRingBounds)
	s.Sweep()
	r := s.Snapshot()

	if r.Files != 1 || r.Runs != 2 || r.OwnerSwitches != 1 {
		t.Fatalf("files=%d runs=%d switches=%d, want 1/2/1", r.Files, r.Runs, r.OwnerSwitches)
	}
	v := r.Volumes[0]
	if v.MaxRun != 5 {
		t.Fatalf("max run = %d, want 5", v.MaxRun)
	}
	var wantHist [RunBuckets]int64
	wantHist[runBucket(5)]++ // bucket (4,8]
	wantHist[runBucket(2)]++ // bucket (1,2]
	if v.RunHist != wantHist {
		t.Fatalf("run hist = %v, want %v", v.RunHist, wantHist)
	}
	if runBucket(5) != 3 || runBucket(2) != 1 || runBucket(1) != 0 || runBucket(4) != 2 {
		t.Fatalf("bucket mapping drifted: 1→%d 2→%d 4→%d 5→%d",
			runBucket(1), runBucket(2), runBucket(4), runBucket(5))
	}
}

// TestRoleClassification gives the sweeper a real arc (pred 0x40, self
// 0x80) over a store holding primary data, replica data outside the
// arc, a fresh pointer, and a stale pointer, and checks every role
// tally. Replica and pointer entries must not contribute runs or files.
func TestRoleClassification(t *testing.T) {
	st := store.New()
	now := time.Now()
	// Volume 0x50 is inside (0x40, 0x80]: primary, one file of 4 blocks.
	for b := uint64(0); b < 4; b++ {
		st.Put(rawKey(0x50, 1, b), make([]byte, 100), 0, now)
	}
	// Volume 0x10 is outside the arc: replica, file head included.
	for b := uint64(0); b < 3; b++ {
		st.Put(rawKey(0x10, 1, b), make([]byte, 50), 0, now)
	}
	// One fresh and one stale pointer (default StaleAfter is 1h).
	st.PutPointer(rawKey(0x50, 2, 0), "peer:1", 64, now)
	st.PutPointer(rawKey(0x50, 3, 0), "peer:2", 64, now.Add(-2*time.Hour))

	var self, pred keys.Key
	self[0], pred[0] = 0x80, 0x40
	s := newSweeper(t, st, func() Bounds { return Bounds{Self: self, Pred: pred, Ok: true} })
	s.Sweep()
	r := s.Snapshot()

	if r.PrimaryBlocks != 4 || r.PrimaryBytes != 400 {
		t.Fatalf("primary = %d/%d, want 4 blocks / 400 bytes", r.PrimaryBlocks, r.PrimaryBytes)
	}
	if r.ReplicaBlocks != 3 || r.ReplicaBytes != 150 {
		t.Fatalf("replica = %d/%d, want 3 blocks / 150 bytes", r.ReplicaBlocks, r.ReplicaBytes)
	}
	if r.PointerBlocks != 2 || r.PointerBytes != 128 || r.StalePointers != 1 {
		t.Fatalf("pointers = %d blocks / %d bytes / %d stale, want 2/128/1",
			r.PointerBlocks, r.PointerBytes, r.StalePointers)
	}
	// Only the primary file counts: replica heads and pointer heads don't.
	if r.Files != 1 || r.Runs != 1 {
		t.Fatalf("files=%d runs=%d, want 1/1", r.Files, r.Runs)
	}
}

// TestSweepResetsBetweenTicks mutates the store between sweeps and
// checks the persistent accumulators fully reset: counts reflect the
// current index, not history.
func TestSweepResetsBetweenTicks(t *testing.T) {
	st := store.New()
	now := time.Now()
	for b := uint64(0); b < 8; b++ {
		st.Put(rawKey(1, 1, b), make([]byte, 10), 0, now)
	}
	s := newSweeper(t, st, wholeRingBounds)
	s.Sweep()
	if r := s.Snapshot(); r.Runs != 1 || r.PrimaryBlocks != 8 {
		t.Fatalf("first sweep: runs=%d blocks=%d, want 1/8", r.Runs, r.PrimaryBlocks)
	}
	// Punch holes: delete blocks 2 and 5 → runs 0-1, 3-4, 6-7.
	st.Delete(rawKey(1, 1, 2))
	st.Delete(rawKey(1, 1, 5))
	s.Sweep()
	r := s.Snapshot()
	if r.Runs != 3 || r.PrimaryBlocks != 6 {
		t.Fatalf("second sweep: runs=%d blocks=%d, want 3/6", r.Runs, r.PrimaryBlocks)
	}
	if r.Sweeps != 2 {
		t.Fatalf("sweeps = %d, want 2", r.Sweeps)
	}
}

// TestMergeAssociative checks Merge over three real sweep reports:
// any grouping and any order must produce identical cluster totals —
// the property that makes ClusterCensus independent of walk order.
func TestMergeAssociative(t *testing.T) {
	mk := func(seed byte, blocks []uint64) *Report {
		st := store.New()
		now := time.Now()
		for _, b := range blocks {
			st.Put(rawKey(seed, 1, b), make([]byte, 10), 0, now)
			st.Put(rawKey(seed+1, 2, b*2), make([]byte, 20), 0, now)
		}
		st.PutPointer(rawKey(seed, 9, 0), "p:1", 5, now.Add(-2*time.Hour))
		s := newSweeper(t, st, wholeRingBounds)
		s.Sweep()
		return s.Snapshot()
	}
	a := mk(1, []uint64{0, 1, 2, 5})
	b := mk(3, []uint64{0, 4})
	c := mk(1, []uint64{7, 8, 9}) // overlaps a's volumes: exercises the by-ID merge

	left := Merge(Merge(a, b), c)
	right := Merge(a, Merge(b, c))
	if !reflect.DeepEqual(left, right) {
		t.Fatalf("associativity broken:\n (a+b)+c = %+v\n a+(b+c) = %+v", left, right)
	}
	if !reflect.DeepEqual(Merge(a, b), Merge(b, a)) {
		t.Fatal("commutativity broken")
	}
	// Merging with nil must be the identity on content.
	if got := Merge(a, nil); !reflect.DeepEqual(got, Merge(nil, a)) {
		t.Fatalf("nil merge asymmetric: %+v", got)
	}

	// Spot-check the merged totals against the inputs.
	wantBlocks := a.PrimaryBlocks + b.PrimaryBlocks + c.PrimaryBlocks
	if left.PrimaryBlocks != wantBlocks {
		t.Fatalf("merged blocks = %d, want %d", left.PrimaryBlocks, wantBlocks)
	}
	if left.StalePointers != 3 {
		t.Fatalf("merged stale pointers = %d, want 3", left.StalePointers)
	}
}

// TestBuildClusterGolden checks the derived §5/§10 metrics over
// hand-built node reports, including a node without a report that must
// be listed but contribute nothing.
func TestBuildClusterGolden(t *testing.T) {
	nodes := []NodeReport{
		{Addr: "a:1", ID: "aa", Rep: &Report{
			PrimaryBlocks: 10, PrimaryBytes: 1000, ReplicaBytes: 500,
			Files: 2, Runs: 2,
			Volumes: []VolumeCensus{{Volume: "v1", Blocks: 10, Bytes: 1000, Files: 2, Runs: 2, MaxRun: 5}},
		}},
		{Addr: "b:1", ID: "bb", Rep: &Report{
			PrimaryBlocks: 10, PrimaryBytes: 3000, ReplicaBytes: 500,
			Files: 1, Runs: 4, OwnerSwitches: 3, StalePointers: 2,
			Volumes: []VolumeCensus{{Volume: "v1", Blocks: 10, Bytes: 3000, Files: 1, Runs: 4, MaxRun: 3}},
		}},
		{Addr: "c:1", ID: "cc"}, // no report
	}
	c := BuildCluster(nodes)

	if c.TotalBlocks != 20 || c.TotalBytes != 4000 || c.TotalFiles != 3 || c.TotalRuns != 6 {
		t.Fatalf("totals = %d blocks %d bytes %d files %d runs, want 20/4000/3/6",
			c.TotalBlocks, c.TotalBytes, c.TotalFiles, c.TotalRuns)
	}
	if c.StalePointers != 2 {
		t.Fatalf("stale = %d, want 2", c.StalePointers)
	}
	if c.FragRatio != 2.0 || c.Locality != 1.0 {
		t.Fatalf("frag=%v locality=%v, want 2.0 and 1.0", c.FragRatio, c.Locality)
	}
	if c.State != "ok" {
		t.Fatalf("state = %q, want ok at frag 2.0", c.State)
	}
	if len(c.Volumes) != 1 || c.Volumes[0].Blocks != 20 || c.Volumes[0].MaxRun != 5 {
		t.Fatalf("merged volumes wrong: %+v", c.Volumes)
	}
	// Imbalance over primary bytes {1000, 3000} is stddev/mean = 0.5.
	if c.Imbalance < 0.49 || c.Imbalance > 0.51 {
		t.Fatalf("imbalance = %v, want 0.5", c.Imbalance)
	}
	// Replica bytes are equal, so spread must be 0.
	if c.ReplicaSpread != 0 {
		t.Fatalf("replica spread = %v, want 0", c.ReplicaSpread)
	}

	// State thresholds.
	failing := BuildCluster([]NodeReport{{Addr: "a:1", Rep: &Report{Files: 1, Runs: 20}}})
	if failing.State != "failing" {
		t.Fatalf("frag 20 state = %q, want failing", failing.State)
	}
}

// TestReportJSONRoundTrip pins the wire form: ReportJSON → ParseReport
// must reproduce the snapshot exactly, and malformed input must yield
// nil rather than a zero report.
func TestReportJSONRoundTrip(t *testing.T) {
	st := store.New()
	now := time.Now()
	for b := uint64(0); b < 5; b++ {
		st.Put(rawKey(1, 1, b), make([]byte, 10), 0, now)
	}
	st.PutPointer(rawKey(1, 2, 0), "p:1", 9, now)
	s := newSweeper(t, st, wholeRingBounds)
	s.Sweep()

	want := s.Snapshot()
	got := ParseReport(s.ReportJSON())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if ParseReport(nil) != nil || ParseReport([]byte("{broken")) != nil {
		t.Fatal("ParseReport must return nil for empty or malformed input")
	}
}

// TestSkipsWithoutBounds checks a sweeper whose node has no ring
// position yet does nothing rather than publishing a bogus census.
func TestSkipsWithoutBounds(t *testing.T) {
	st := store.New()
	st.Put(rawKey(1, 1, 0), make([]byte, 10), 0, time.Now())
	s := newSweeper(t, st, func() Bounds { return Bounds{} })
	s.Sweep()
	if r := s.Snapshot(); r.Sweeps != 0 || r.PrimaryBlocks != 0 {
		t.Fatalf("sweep without bounds ran: %+v", r)
	}
}

// TestSweepZeroAllocs is the tentpole gate in test form: a steady-state
// sweep tick over a populated store must not allocate. Skipped under
// the race detector, whose instrumentation changes allocation behavior;
// the verify tier enforces the same bound through BenchmarkSweepTick.
func TestSweepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	s := benchSweeper(t)
	allocs := testing.AllocsPerRun(20, s.Sweep)
	if allocs != 0 {
		t.Fatalf("steady-state sweep allocates %v times per tick, want 0", allocs)
	}
}

// benchSweeper builds a sweeper over a store with several volumes,
// files, and roles, and warms it (first sweep allocates the per-volume
// accumulators; later ones must not).
func benchSweeper(tb testing.TB) *Sweeper {
	tb.Helper()
	st := store.New()
	now := time.Now()
	for vol := byte(1); vol <= 4; vol++ {
		for file := byte(1); file <= 16; file++ {
			for b := uint64(0); b < 16; b++ {
				if b%5 == 4 {
					continue // holes: exercise run closing mid-file
				}
				st.Put(rawKey(vol, file, b), make([]byte, 32), 0, now)
			}
		}
	}
	st.PutPointer(rawKey(5, 1, 0), "p:1", 7, now.Add(-2*time.Hour))
	s := newSweeper(tb, st, wholeRingBounds)
	s.Sweep()
	return s
}

// BenchmarkSweepTick measures the steady-state census tick; the verify
// census tier gates on its allocation report staying at 0 allocs/op.
func BenchmarkSweepTick(b *testing.B) {
	s := benchSweeper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sweep()
	}
}

// TestSweepDuringChurn runs sweeps concurrently with store churn
// (puts, deletes, pointer writes) and snapshot reads — the sweeper must
// stay consistent and race-free (the verify tier runs this under -race
// and, with D2_CENSUS_SOAK set, for a longer wall-clock window).
func TestSweepDuringChurn(t *testing.T) {
	dur := 200 * time.Millisecond
	if env := os.Getenv("D2_CENSUS_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("bad D2_CENSUS_SOAK %q: %v", env, err)
		}
		dur = d
	}
	st := store.New()
	s := newSweeper(t, st, wholeRingBounds)
	stop := make(chan struct{})
	done := make(chan struct{})

	go func() {
		defer close(done)
		now := time.Now()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vol, file, block := byte(1+i%3), byte(1+i%7), i%64
			switch i % 5 {
			case 0, 1, 2:
				st.Put(rawKey(vol, file, block), make([]byte, 64), 0, now)
			case 3:
				st.Delete(rawKey(vol, file, (i/2)%64))
			case 4:
				st.PutPointer(rawKey(vol, file+10, block), "p:1", 8, now)
			}
		}
	}()

	deadline := time.Now().Add(dur)
	sweeps := 0
	for time.Now().Before(deadline) {
		s.Sweep()
		sweeps++
		r := s.Snapshot()
		// Invariants that hold under any interleaving of the churn.
		if r.Runs < 0 || r.Files < 0 || r.Runs > r.PrimaryBlocks {
			t.Fatalf("inconsistent snapshot under churn: %+v", r)
		}
		for _, v := range r.Volumes {
			if v.Runs > v.Blocks || v.Files > v.Blocks {
				t.Fatalf("inconsistent volume under churn: %+v", v)
			}
		}
	}
	close(stop)
	<-done
	if sweeps == 0 {
		t.Fatal("no sweeps completed")
	}
	t.Logf("churn soak: %d sweeps in %v", sweeps, dur)
}

// TestFragThresholdOrdering pins the shared thresholds: warn must stay
// below fail, and both must classify as documented.
func TestFragThresholdOrdering(t *testing.T) {
	if FragWarn >= FragFail {
		t.Fatalf("FragWarn %v >= FragFail %v", FragWarn, FragFail)
	}
	for _, tc := range []struct {
		runs  int64
		state string
	}{{2, "ok"}, {8, "warn"}, {40, "failing"}} {
		c := BuildCluster([]NodeReport{{Rep: &Report{Files: 2, Runs: tc.runs}}})
		if c.State != tc.state {
			t.Fatalf("runs/files %d: state %q, want %q", tc.runs/2, c.State, tc.state)
		}
	}
}
