package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// writeSync is the durable write path: each client owns one writable
// volume (§3 single writer) and alternates small saves with bulk stream
// writes, every one acknowledged by Sync under fsync "always".
type writeSync struct {
	cfg  runCfg
	t    *tally
	rec  *recorder
	hash string

	vols     []volInfo
	sessions []*session
	handles  []tvol
	writers  []*writer
}

// writer is one client's private state: its op stream, its position in
// the directory rotation, and everything it has had acknowledged.
type writer struct {
	rng     *rand.Rand // operation choices and sizes (the hashed plan)
	ops     int        // operations drawn so far
	bulkAt  int        // position of the bulk write inside the current block
	content *rand.Rand // file bytes
	saves   int
	bulks   int
	acked   []fileSpec
	bytes   int64
}

const (
	saveFiles     = 8
	saveMinBytes  = 4 << 10
	saveMaxBytes  = 64 << 10
	savesPerGroup = 32
	bulksPerGroup = 16
	// opsPerBulk: one operation in every ten is a bulk write. The share is
	// exact per block of ten — only the position inside the block is
	// drawn — so two runs do the same mix of work, not a sample of it.
	opsPerBulk = 10
)

func writeVolName(c int) string { return fmt.Sprintf("vol-w%d", c) }

// nextOp draws the next operation of a client's stream: bulk or save,
// and for a save its eight file sizes.
func (wr *writer) nextOp() (bulk bool, sizes [saveFiles]int) {
	slot := wr.ops % opsPerBulk
	if slot == 0 {
		wr.bulkAt = wr.rng.IntN(opsPerBulk)
	}
	wr.ops++
	if slot == wr.bulkAt {
		return true, sizes
	}
	for i := range sizes {
		sizes[i] = saveMinBytes + wr.rng.IntN(saveMaxBytes-saveMinBytes+1)
	}
	return false, sizes
}

func newWriteSync(cfg runCfg, t *tally, rec *recorder) *writeSync {
	ph := newPlanHash()
	w := &writeSync{cfg: cfg, t: t, rec: rec}
	for c := 0; c < cfg.clients; c++ {
		w.vols = append(w.vols, genVolume(writeVolName(c)))
		dry := &writer{rng: rngFor(cfg.seed, "write-ops", c)}
		for i := 0; i < 512; i++ {
			bulk, sizes := dry.nextOp()
			ph.add("write", c, bulk, sizes)
		}
		w.writers = append(w.writers, &writer{
			rng:     rngFor(cfg.seed, "write-ops", c),
			content: rngFor(cfg.seed, "write-content", c),
		})
	}
	w.hash = ph.sum()
	return w
}

func (w *writeSync) planHash() string { return w.hash }

func (w *writeSync) userBytes() int64 {
	var n int64
	for _, wr := range w.writers {
		n += wr.bytes
	}
	return n
}

func (w *writeSync) setup(ctx context.Context, r *ring) error {
	for c := 0; c < w.cfg.clients; c++ {
		s, err := r.connect()
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, s)
		vol, err := s.create(ctx, w.vols[c].name, w.vols[c].priv)
		if err != nil {
			return fmt.Errorf("bench: write-sync create volume: %w", err)
		}
		w.handles = append(w.handles, tvol{v: vol, rec: w.rec})
	}
	// Warm pass: one save and one bulk write per client.
	return parallel(w.cfg.clients, w.cfg.clients, func(c int) error {
		var sizes [saveFiles]int
		for i := range sizes {
			sizes[i] = saveMinBytes
		}
		if _, err := w.save(ctx, c, sizes); err != nil {
			return fmt.Errorf("bench: write-sync warm pass: %w", err)
		}
		if _, err := w.bulk(ctx, c); err != nil {
			return fmt.Errorf("bench: write-sync warm pass: %w", err)
		}
		return nil
	})
}

// save writes eight files into a fresh directory and syncs. A new
// directory per save (32 to a group directory) keeps every directory
// block small, so the cost of a save does not grow as the run goes on.
func (w *writeSync) save(ctx context.Context, c int, sizes [saveFiles]int) (int64, error) {
	wr, vol := w.writers[c], w.handles[c]
	group, slot := wr.saves/savesPerGroup, wr.saves%savesPerGroup
	wr.saves++
	if slot == 0 {
		if err := vol.mkdir(ctx, fmt.Sprintf("/g%04d", group)); err != nil {
			return 0, err
		}
	}
	dir := fmt.Sprintf("/g%04d/s%02d", group, slot)
	if err := vol.mkdir(ctx, dir); err != nil {
		return 0, err
	}
	specs := make([]fileSpec, 0, saveFiles)
	var total int64
	for i, size := range sizes {
		data := make([]byte, size)
		fill(wr.content, data)
		spec := fileSpec{vol: c, path: fmt.Sprintf("%s/f%d", dir, i), size: size, sum: checksum(data)}
		if err := vol.writeFile(ctx, spec.path, data); err != nil {
			return 0, err
		}
		specs = append(specs, spec)
		total += int64(size)
	}
	if err := vol.sync(ctx); err != nil {
		return 0, err
	}
	wr.acked = append(wr.acked, specs...)
	wr.bytes += total
	return total, nil
}

// bulk stream-writes one large file and syncs.
func (w *writeSync) bulk(ctx context.Context, c int) (int64, error) {
	wr, vol := w.writers[c], w.handles[c]
	group, slot := wr.bulks/bulksPerGroup, wr.bulks%bulksPerGroup
	wr.bulks++
	if slot == 0 {
		if err := vol.mkdir(ctx, fmt.Sprintf("/b%04d", group)); err != nil {
			return 0, err
		}
	}
	spec := fileSpec{vol: c, path: fmt.Sprintf("/b%04d/bulk%02d.bin", group, slot), size: w.cfg.sc.bulkBytes}
	h := crc32.New(castagnoli)
	err := vol.writeStream(ctx, spec.path, spec.size, func(b []byte) {
		fill(wr.content, b)
		h.Write(b)
	})
	if err != nil {
		return 0, err
	}
	if err := vol.sync(ctx); err != nil {
		return 0, err
	}
	spec.sum = h.Sum32()
	wr.acked = append(wr.acked, spec)
	wr.bytes += int64(spec.size)
	return int64(spec.size), nil
}

func (w *writeSync) run(ctx context.Context, d time.Duration, _ bool) phaseResult {
	type part struct {
		files, bytes int64
		saveLat      []int64
	}
	parts := make([]part, w.cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for time.Now().Before(deadline) {
				bulk, sizes := w.writers[c].nextOp()
				w.t.attempted.Add(1)
				t0 := time.Now()
				var (
					n   int64
					err error
				)
				if bulk {
					octx, sp := w.rec.start(ctx, layOp, opBulk, 0)
					n, err = w.bulk(octx, c)
					sp.end(err)
				} else {
					octx, sp := w.rec.start(ctx, layOp, opSave, 0)
					n, err = w.save(octx, c, sizes)
					sp.end(err)
				}
				if err != nil {
					w.t.fail("write-sync: %v", err)
					continue
				}
				p.bytes += n
				if bulk {
					p.files++
				} else {
					p.files += saveFiles
					p.saveLat = append(p.saveLat, int64(time.Since(t0)))
				}
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{seconds: time.Since(start).Seconds()}
	for _, p := range parts {
		res.ops += p.files
		res.bytes += p.bytes
		res.lat = append(res.lat, p.saveLat...)
	}
	return res
}

func (w *writeSync) report(doc *runDoc, res phaseResult) {
	ms := durationsMs(res.lat)
	n := int64(len(ms))
	// Totals ÷ time, not the median one-second window the read loops
	// report: a few times a run a node checkpoints its 64 MiB WAL and
	// every fsync on the box slows for a second or two, and that cost
	// belongs in the figure. (The median window was tried; it left the
	// checkpoints out and was no steadier, 22 % against 22 %.)
	doc.setContract("write_files_per_s", "ops_per_s", float64(res.ops)/res.seconds, "files/s", res.ops)
	doc.set("write_mb_per_s", float64(res.bytes)/1e6/res.seconds, "MB/s", res.ops)
	doc.setContract("save_p50_ms", "op_p50_ms", quantile(ms, 0.50), "ms", n)
	// p90, not p99: a run completes a few hundred saves.
	doc.set("save_p90_ms", quantile(ms, 0.90), "ms", n)
}

// verify is the durability check: close the writers, restart the node
// holding the most primary bytes on its own data directory, and read a
// seeded 10 % sample of every acknowledged file back through a fresh
// client. An unreadable or altered file is a failed operation.
func (w *writeSync) verify(ctx context.Context, r *ring, doc *runDoc) error {
	for _, h := range w.handles {
		if err := h.close(ctx); err != nil {
			return fmt.Errorf("bench: write-sync close volume: %w", err)
		}
	}
	stats, err := w.sessions[0].clusterStats(ctx)
	if err != nil {
		return fmt.Errorf("bench: write-sync cluster stats: %w", err)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].RespBytes > stats[j].RespBytes })
	var target *member
	for _, m := range r.members {
		if len(stats) > 0 && m.addr == string(stats[0].Self.Addr) {
			target = m
		}
	}
	if target == nil {
		return fmt.Errorf("bench: write-sync: no member matches the busiest node")
	}
	took, err := r.restart(ctx, target)
	if err != nil {
		return err
	}
	doc.set("restart_s", took.Seconds(), "s", 1)
	if r.rec != nil {
		doc.set("disk.recovery_s", target.openDur.Seconds(), "s", 1)
	}
	return readBack(ctx, r, w.t, w.cfg.seed, w.vols, w.ackedByVol())
}

func (w *writeSync) ackedByVol() [][]fileSpec {
	out := make([][]fileSpec, len(w.writers))
	for c, wr := range w.writers {
		out[c] = wr.acked
	}
	return out
}

// readBack reads a seeded 10 % sample (at least one file per volume) of
// acknowledged files through a fresh client and compares checksums.
func readBack(ctx context.Context, r *ring, t *tally, seed uint64, vols []volInfo, acked [][]fileSpec) error {
	s, err := r.connect()
	if err != nil {
		return err
	}
	defer s.close()
	pick := rngFor(seed, "readback", 0)
	buf := make([]byte, 256<<10)
	for v, specs := range acked {
		if len(specs) == 0 {
			continue
		}
		vol, err := s.openVol(ctx, nil, vols[v], false)
		if err != nil {
			return fmt.Errorf("bench: read-back open %s: %w", vols[v].name, err)
		}
		n := max(1, len(specs)/10)
		for i := 0; i < n; i++ {
			spec := specs[pick.IntN(len(specs))]
			t.attempted.Add(1)
			got, sum, _, err := vol.readStream(ctx, spec.path, buf)
			switch {
			case err != nil:
				t.fail("read-back %s%s: %v", vols[v].name, spec.path, err)
			case got != int64(spec.size) || sum != spec.sum:
				t.fail("read-back %s%s: content mismatch (%d bytes)", vols[v].name, spec.path, got)
			}
		}
	}
	return nil
}

func (w *writeSync) clients() []*session { return w.sessions }

func (w *writeSync) release() {
	for _, s := range w.sessions {
		s.close()
	}
}
