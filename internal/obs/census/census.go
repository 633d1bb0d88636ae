// Package census is the live placement census (the observability layer
// for the paper's §5 claims): a background sweeper on every node walks
// the local store index in key order and measures, on the real ring,
// the thing the offline simulators estimate — how fragmented each
// volume's block placement actually is. Per node it tallies blocks and
// bytes by role (primary / replica / pointer), per-volume contiguous
// run-length histograms, file counts, and stale pointers; cluster
// aggregation (cluster.go) merges the per-node reports into §5-style
// metrics: a locality score (expected owner switches per sequential
// file scan), per-volume fragmentation ratios, §10 load imbalance, and
// replica-placement spread.
//
// The sweep is index-only (store.Engine.ArcVisit) and the steady-state
// tick holds zero allocations, like the history sampler: accumulator
// structs persist across ticks, per-volume slots are reused, and report
// materialization (JSON, sorting) happens only on demand when an RPC or
// admin endpoint asks.
package census

import (
	"encoding/json"
	"math/bits"
	"sort"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/store"
)

// RunBuckets is the number of power-of-two run-length histogram
// buckets: bucket i counts runs of length in (2^(i-1), 2^i], so bucket
// 0 holds runs of length 1, bucket 1 length 2, bucket 2 lengths 3-4,
// and so on. The last bucket absorbs everything longer.
const RunBuckets = 16

// runBucket maps a run length (≥ 1) to its histogram bucket.
func runBucket(n int64) int {
	b := bits.Len64(uint64(n - 1))
	if b >= RunBuckets {
		return RunBuckets - 1
	}
	return b
}

// Fragmentation-ratio thresholds shared by the doctor health check, the
// cluster state classification, and d2ctl frag's exit code. The ratio
// is mean contiguous runs per file: 1.0 is perfectly defragmented, N
// means a sequential reader of an average file hops owners N-1 times.
const (
	FragWarn = 4.0
	FragFail = 16.0
)

// VolumeCensus is one volume's placement stats over a node's primary
// range (or, after merging, over the whole cluster).
type VolumeCensus struct {
	// Volume is the short hex volume ID (keys.VolumeID.String).
	Volume string `json:"volume"`
	// Blocks and Bytes count primary data entries of the volume.
	Blocks int64 `json:"blocks"`
	Bytes  int64 `json:"bytes"`
	// Files counts file heads (block-0 entries) seen.
	Files int64 `json:"files"`
	// Runs counts maximal contiguous block sequences (same file,
	// consecutive block numbers) — the unit of the §5 locality story.
	Runs int64 `json:"runs"`
	// MaxRun is the longest run observed.
	MaxRun int64 `json:"max_run"`
	// RunHist is the power-of-two run-length histogram (see RunBuckets).
	RunHist [RunBuckets]int64 `json:"run_hist"`
}

// FragRatio returns mean runs per file (0 when no file heads were
// seen, e.g. a node holding only tail blocks).
func (v *VolumeCensus) FragRatio() float64 {
	if v.Files == 0 {
		return 0
	}
	return float64(v.Runs) / float64(v.Files)
}

// Report is one node's placement census: role totals plus the
// per-volume breakdown of its primary range.
type Report struct {
	PrimaryBlocks int64 `json:"primary_blocks"`
	PrimaryBytes  int64 `json:"primary_bytes"`
	ReplicaBlocks int64 `json:"replica_blocks"`
	ReplicaBytes  int64 `json:"replica_bytes"`
	PointerBlocks int64 `json:"pointer_blocks"`
	PointerBytes  int64 `json:"pointer_bytes"`
	// StalePointers counts pointer entries older than the stabilization
	// window — pointers that should already have been resolved.
	StalePointers int64 `json:"stale_pointers"`
	// Files and Runs sum the per-volume counts.
	Files int64 `json:"files"`
	Runs  int64 `json:"runs"`
	// OwnerSwitches is max(Runs-Files, 0): how many times a sequential
	// scan of every locally-headed file leaves a contiguous run.
	OwnerSwitches int64          `json:"owner_switches"`
	Volumes       []VolumeCensus `json:"volumes,omitempty"`
	// SweepNanos is the duration of the last sweep; Sweeps counts them.
	SweepNanos int64 `json:"sweep_nanos"`
	Sweeps     int64 `json:"sweeps"`
}

// FragRatio returns the node-local mean runs per file.
func (r *Report) FragRatio() float64 {
	if r.Files == 0 {
		return 0
	}
	return float64(r.Runs) / float64(r.Files)
}

// ParseReport decodes a Report from its JSON wire form, returning nil
// for empty or malformed input (census-less or older nodes).
func ParseReport(b []byte) *Report {
	if len(b) == 0 {
		return nil
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil
	}
	return &r
}

// Bounds is the ring position the sweeper classifies roles against: a
// data entry in (Pred, Self] is primary, anything else replica.
type Bounds struct {
	Self, Pred keys.Key
	// Ok false (no ring position yet) skips the sweep.
	Ok bool
}

// Config configures a Sweeper.
type Config struct {
	// Store is the engine to sweep. Required.
	Store store.Engine
	// Bounds returns the node's current ring position. Required.
	Bounds func() Bounds
	// Registry receives the d2_census_* gauges (obs.Default when nil).
	Registry *obs.Registry
	// StaleAfter is the pointer age beyond which a pointer counts as
	// stale (default 1h, the pointer-stabilization default).
	StaleAfter time.Duration
}

// Sweeper runs the periodic placement census over one node's store.
// All state persists across sweeps so the steady-state tick allocates
// nothing; Snapshot and ReportJSON materialize results on demand.
type Sweeper struct {
	st         store.Engine
	bounds     func() Bounds
	staleAfter time.Duration
	visit      func(keys.Key, store.Meta) bool // pre-bound s.Step

	mu sync.Mutex // held from Begin to End; guards everything below

	// Totals of the last completed sweep.
	primaryBlocks, primaryBytes int64
	replicaBlocks, replicaBytes int64
	pointerBlocks, pointerBytes int64
	stalePtrs                   int64
	files, runs                 int64
	sweepNanos, sweeps          int64
	vols                        map[keys.VolumeID]*volAcc

	// Walk state, valid only inside a sweep.
	start       time.Time
	self, pred  keys.Key
	wholeRing   bool
	staleBefore int64
	run         runState

	// Gauges published after every sweep.
	gPrimaryBlocks, gPrimaryBytes *obs.Gauge
	gReplicaBlocks, gReplicaBytes *obs.Gauge
	gPointerBlocks, gStalePtrs    *obs.Gauge
	gFiles, gRuns, gSwitches      *obs.Gauge
	gFragMilli, gSweepNanos       *obs.Gauge
	cSweeps                       *obs.Counter
}

type volAcc struct {
	name                             string // hex volume ID, set once
	blocks, bytes, files, runs, maxR int64
	hist                             [RunBuckets]int64
}

type runState struct {
	prev keys.Key
	acc  *volAcc
	len  int64
}

// New creates a sweeper. It does not start anything: the owner drives
// Begin → Step → End from its own index walk (the node's maintenance
// round), or calls Sweep for a standalone pass (SweepNow around a balance
// move).
func New(cfg Config) *Sweeper {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = time.Hour
	}
	s := &Sweeper{
		st:         cfg.Store,
		bounds:     cfg.Bounds,
		staleAfter: cfg.StaleAfter,
		vols:       make(map[keys.VolumeID]*volAcc),

		gPrimaryBlocks: reg.Gauge("d2_census_primary_blocks"),
		gPrimaryBytes:  reg.Gauge("d2_census_primary_bytes"),
		gReplicaBlocks: reg.Gauge("d2_census_replica_blocks"),
		gReplicaBytes:  reg.Gauge("d2_census_replica_bytes"),
		gPointerBlocks: reg.Gauge("d2_census_pointer_blocks"),
		gStalePtrs:     reg.Gauge("d2_census_stale_pointers"),
		gFiles:         reg.Gauge("d2_census_files"),
		gRuns:          reg.Gauge("d2_census_runs"),
		gSwitches:      reg.Gauge("d2_census_owner_switches"),
		gFragMilli:     reg.Gauge("d2_census_frag_ratio_milli"),
		gSweepNanos:    reg.Gauge("d2_census_sweep_nanos"),
		cSweeps:        reg.Counter("d2_census_sweeps_total"),
	}
	s.visit = s.Step
	return s
}

// Sweep runs one standalone census pass: Begin against the node's current
// bounds, walk the whole store index once in key order through Step, End.
// The steady-state call allocates nothing.
func (s *Sweeper) Sweep() {
	if s.Begin(s.bounds()) {
		// Arc (self, self] is the whole ring: one linear walk from the key
		// origin, which is exactly the order run detection needs.
		s.st.ArcVisit(s.self, s.self, s.visit)
		s.End()
	}
}

// SweepNow runs Sweep out of cadence and returns what the census-delta
// events around a balance move or split record: the primary run and file
// counts and the fragmentation ratio ×1000.
func (s *Sweeper) SweepNow() (runs, files, fragMilli int64) {
	s.Sweep()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs, s.files, s.fragMilli()
}

// Begin opens a sweep against b: it takes the sweeper's lock (sweeps are
// serialized) and resets the persistent accumulators. It reports false,
// holding nothing, when b has no ring position. After a true Begin the
// caller feeds every index entry of one whole-store walk (key order, from
// the key origin) to Step and then must call End.
func (s *Sweeper) Begin(b Bounds) bool {
	if !b.Ok {
		return false
	}
	start := time.Now()
	s.mu.Lock()
	s.start = start
	s.self, s.pred = b.Self, b.Pred
	s.wholeRing = b.Pred.IsZero() || b.Pred.Equal(b.Self)
	s.staleBefore = start.Add(-s.staleAfter).UnixNano()

	s.primaryBlocks, s.primaryBytes = 0, 0
	s.replicaBlocks, s.replicaBytes = 0, 0
	s.pointerBlocks, s.pointerBytes = 0, 0
	s.stalePtrs, s.files, s.runs = 0, 0, 0
	for _, acc := range s.vols {
		*acc = volAcc{name: acc.name}
	}
	s.run = runState{}
	return true
}

// End closes the sweep Begin opened: it books the last run, records the
// walk's duration, publishes the gauges and releases the lock.
func (s *Sweeper) End() {
	s.closeRun()
	s.sweeps++
	s.sweepNanos = time.Since(s.start).Nanoseconds()
	s.publishLocked()
	s.mu.Unlock()
}

// Step classifies one index entry; it always reports true, so it can be
// an ArcVisit callback itself. It is the per-entry hot path: no
// allocation, no payload access.
func (s *Sweeper) Step(k keys.Key, m store.Meta) bool {
	if m.IsPointer() {
		s.pointerBlocks++
		s.pointerBytes += m.Size
		if m.PointerSince < s.staleBefore {
			s.stalePtrs++
		}
		return true
	}
	if !s.wholeRing && !k.Between(s.pred, s.self) {
		s.replicaBlocks++
		s.replicaBytes += m.Size
		return true
	}

	s.primaryBlocks++
	s.primaryBytes += m.Size
	v := k.Volume()
	acc := s.vols[v]
	if acc == nil { // first sight of this volume: the one allowed alloc
		acc = &volAcc{name: v.String()}
		s.vols[v] = acc
	}
	acc.blocks++
	acc.bytes += m.Size
	if k.BlockNum() == 0 {
		acc.files++
		s.files++
	}
	if s.run.len > 0 && keys.SameFile(s.run.prev, k) && k.BlockNum() == s.run.prev.BlockNum()+1 {
		s.run.len++
	} else {
		s.closeRun()
		s.run.len = 1
		s.run.acc = acc
		acc.runs++
		s.runs++
	}
	s.run.prev = k
	return true
}

// closeRun books the finished run into its volume's histogram.
func (s *Sweeper) closeRun() {
	if s.run.len == 0 {
		return
	}
	acc := s.run.acc
	if s.run.len > acc.maxR {
		acc.maxR = s.run.len
	}
	acc.hist[runBucket(s.run.len)]++
	s.run.len = 0
}

// publishLocked pushes the sweep totals into the d2_census_* gauges.
func (s *Sweeper) publishLocked() {
	s.gPrimaryBlocks.Set(s.primaryBlocks)
	s.gPrimaryBytes.Set(s.primaryBytes)
	s.gReplicaBlocks.Set(s.replicaBlocks)
	s.gReplicaBytes.Set(s.replicaBytes)
	s.gPointerBlocks.Set(s.pointerBlocks)
	s.gStalePtrs.Set(s.stalePtrs)
	s.gFiles.Set(s.files)
	s.gRuns.Set(s.runs)
	switches := s.runs - s.files
	if switches < 0 {
		switches = 0
	}
	s.gSwitches.Set(switches)
	s.gFragMilli.Set(s.fragMilli())
	s.gSweepNanos.Set(s.sweepNanos)
	s.cSweeps.Inc()
}

// fragMilli is the last sweep's fragmentation ratio ×1000 (mean runs
// per file). s.mu is held.
func (s *Sweeper) fragMilli() int64 {
	if s.files == 0 {
		return 0
	}
	return s.runs * 1000 / s.files
}

// Snapshot materializes the last sweep as a Report (volumes sorted by
// ID, zero-entry volumes dropped). Allocates; not for the tick path.
func (s *Sweeper) Snapshot() *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &Report{
		PrimaryBlocks: s.primaryBlocks, PrimaryBytes: s.primaryBytes,
		ReplicaBlocks: s.replicaBlocks, ReplicaBytes: s.replicaBytes,
		PointerBlocks: s.pointerBlocks, PointerBytes: s.pointerBytes,
		StalePointers: s.stalePtrs,
		Files:         s.files, Runs: s.runs,
		SweepNanos: s.sweepNanos, Sweeps: s.sweeps,
	}
	if d := r.Runs - r.Files; d > 0 {
		r.OwnerSwitches = d
	}
	for _, acc := range s.vols {
		if acc.blocks == 0 {
			continue
		}
		r.Volumes = append(r.Volumes, VolumeCensus{
			Volume: acc.name,
			Blocks: acc.blocks, Bytes: acc.bytes,
			Files: acc.files, Runs: acc.runs, MaxRun: acc.maxR,
			RunHist: acc.hist,
		})
	}
	sort.Slice(r.Volumes, func(i, j int) bool { return r.Volumes[i].Volume < r.Volumes[j].Volume })
	return r
}

// ReportJSON returns the JSON wire form of Snapshot, for the CensusReq
// RPC and the /censusz admin endpoint.
func (s *Sweeper) ReportJSON() []byte {
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		return nil
	}
	return b
}
