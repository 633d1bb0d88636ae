package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// mixedRates are the three fixed arrival rates of mixed-open, in ops/s.
// They were picked once against the seed commit — the middle rate meets
// the latency limit, the top one does not — and are frozen: changing
// them changes the workload.
var mixedRates = [3]int{200, 400, 800}

const (
	// mixedLimitMs is the latency limit max_rate_ok is judged against.
	mixedLimitMs = 50.0
	// mixedBacklogSlack is how many more ops may wait at a phase's end
	// than at its midpoint before the backlog counts as growing (two per
	// worker: a queue length is a noisy instant).
	mixedBacklogSlack = 4

	mixedWritePercent = 20
	mixedWriteBytes   = 8 << 10
	mixedDirFiles     = 64
	mixedZipfS        = 1.1
)

// mixedOpen is independent users: operations arrive on a schedule whether
// or not earlier ones have finished, two workers serve them, and each is
// timed from when it was due, so a stall is charged to every operation it
// delays.
type mixedOpen struct {
	cfg  runCfg
	t    *tally
	rec  *recorder
	hash string
	data *walkData
	zipf *zipf

	wvols    []volInfo
	sessions []*session
	readers  [][]tvol // [worker][volume], long-lived read-only handles
	wh       []tvol   // [worker] writable volume
	workers  []*mixedWorker
	plan     *rand.Rand // arrivals and operation choices
}

type mixedWorker struct {
	content *rand.Rand
	writes  int
	acked   []fileSpec
	bytes   int64
}

// mixedOp is one scheduled operation.
type mixedOp struct {
	due   time.Time
	phase int
	write bool
	spec  *fileSpec // read target
}

// rateResult is what one rate phase measured.
type rateResult struct {
	rate        int
	seconds     float64
	completed   int // finished inside the phase window
	lat         []int64
	failed      int
	backlogMid  int
	backlogEnd  int
	bytes       int64
	p50, p99    float64
	p90, p95    float64
	meetsLimit  bool
	tailSamples int
}

func newMixedOpen(cfg runCfg, t *tally, rec *recorder) *mixedOpen {
	ph := newPlanHash()
	w := &mixedOpen{cfg: cfg, t: t, rec: rec, data: genWalkData(cfg.seed, cfg.sc, ph)}
	w.zipf = newZipf(cfg.sc.walkVols*cfg.sc.walkDirs, mixedZipfS)
	r := rngFor(cfg.seed, "mixed-plan", 0)
	for i := 0; i < 2048; i++ {
		gap, write, spec := w.nextArrival(r, mixedRates[1])
		ph.add("mixed", gap, write, spec.vol, spec.path)
	}
	w.plan = rngFor(cfg.seed, "mixed-plan", 0)
	for c := 0; c < cfg.clients; c++ {
		w.wvols = append(w.wvols, genVolume(fmt.Sprintf("vol-m%d", c)))
		w.workers = append(w.workers, &mixedWorker{content: rngFor(cfg.seed, "mixed-content", c)})
	}
	w.hash = ph.sum()
	return w
}

// nextArrival draws the gap to the next arrival (exponential: independent
// users make a Poisson stream) and what arrives: 20 % writes, else a read
// of a file in a Zipf(1.1)-ranked directory.
func (w *mixedOpen) nextArrival(r *rand.Rand, rate int) (gap time.Duration, write bool, spec *fileSpec) {
	gap = time.Duration(r.ExpFloat64() / float64(rate) * float64(time.Second))
	write = r.IntN(100) < mixedWritePercent
	rank := w.zipf.draw(r)
	v, d := rank%w.cfg.sc.walkVols, rank/w.cfg.sc.walkVols
	spec = &w.data.files[v][d][r.IntN(w.cfg.sc.walkFiles)]
	return gap, write, spec
}

func (w *mixedOpen) planHash() string { return w.hash }

func (w *mixedOpen) userBytes() int64 {
	n := w.data.bytes
	for _, wk := range w.workers {
		n += wk.bytes
	}
	return n
}

func (w *mixedOpen) setup(ctx context.Context, r *ring) error {
	if err := w.data.preload(ctx, r, nil); err != nil {
		return fmt.Errorf("bench: mixed-open preload: %w", err)
	}
	w.readers = make([][]tvol, w.cfg.clients)
	for c := 0; c < w.cfg.clients; c++ {
		s, err := r.connect()
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, s)
		for _, vi := range w.data.vols {
			h, err := s.openVol(ctx, nil, vi, false)
			if err != nil {
				return err
			}
			h.rec = w.rec
			w.readers[c] = append(w.readers[c], h)
		}
		vol, err := s.create(ctx, w.wvols[c].name, w.wvols[c].priv)
		if err != nil {
			return fmt.Errorf("bench: mixed-open create volume: %w", err)
		}
		w.wh = append(w.wh, tvol{v: vol, rec: w.rec})
	}
	// Warm pass: each worker reads one file per volume and does one
	// write, which dials the pools and fills the lookup caches. The
	// volume block caches stay almost cold: the Zipf head warms within
	// the first seconds, the tail keeps missing.
	return parallel(w.cfg.clients, w.cfg.clients, func(c int) error {
		for v := range w.data.vols {
			if _, err := w.read(ctx, c, &w.data.files[v][0][0]); err != nil {
				return fmt.Errorf("bench: mixed-open warm pass: %w", err)
			}
		}
		if _, err := w.write(ctx, c); err != nil {
			return fmt.Errorf("bench: mixed-open warm pass: %w", err)
		}
		return nil
	})
}

func (w *mixedOpen) read(ctx context.Context, c int, spec *fileSpec) (int64, error) {
	data, err := w.readers[c][spec.vol].readFile(ctx, spec.path)
	if err != nil {
		return 0, err
	}
	if len(data) != spec.size || checksum(data) != spec.sum {
		return 0, fmt.Errorf("%s%s: content mismatch (%d bytes)", w.data.vols[spec.vol].name, spec.path, len(data))
	}
	return int64(len(data)), nil
}

// write stores one 8 KB file in the worker's own volume and syncs;
// directories rotate every 64 files so their blocks stay small.
func (w *mixedOpen) write(ctx context.Context, c int) (int64, error) {
	wk, vol := w.workers[c], w.wh[c]
	dir, slot := wk.writes/mixedDirFiles, wk.writes%mixedDirFiles
	wk.writes++
	if slot == 0 {
		if err := vol.mkdir(ctx, fmt.Sprintf("/w%04d", dir)); err != nil {
			return 0, err
		}
	}
	data := make([]byte, mixedWriteBytes)
	fill(wk.content, data)
	spec := fileSpec{vol: c, path: fmt.Sprintf("/w%04d/f%02d", dir, slot), size: len(data), sum: checksum(data)}
	if err := vol.writeFile(ctx, spec.path, data); err != nil {
		return 0, err
	}
	if err := vol.sync(ctx); err != nil {
		return 0, err
	}
	wk.acked = append(wk.acked, spec)
	wk.bytes += int64(len(data))
	return int64(len(data)), nil
}

// run plays the three rate phases back to back, each a third of d. The
// reference phase of a traced run plays only the middle rate.
func (w *mixedOpen) run(ctx context.Context, d time.Duration, reference bool) phaseResult {
	rates := mixedRates[:]
	if reference {
		rates = mixedRates[1:2]
	}
	per := d / time.Duration(len(rates))

	type finished struct {
		phase  int
		at     time.Time
		lat    int64
		bytes  int64
		failed bool
	}
	// The queue holds every arrival of the run, so enqueueing never
	// blocks the generator: that is what makes the loop open.
	capacity := 64
	for _, rate := range rates {
		capacity += int(float64(rate)*per.Seconds()*1.5) + 64
	}
	queue := make(chan mixedOp, capacity)
	results := make([][]finished, w.cfg.clients)
	start := time.Now()
	end := start.Add(per * time.Duration(len(rates)))

	var wg sync.WaitGroup
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := range queue {
				if time.Now().After(end) {
					continue // still queued when the run ended: backlog, not an attempt
				}
				w.t.attempted.Add(1)
				var (
					n   int64
					err error
				)
				if op.write {
					octx, sp := w.rec.start(ctx, layOp, opWrite, 0)
					n, err = w.write(octx, c)
					sp.end(err)
				} else {
					octx, sp := w.rec.start(ctx, layOp, opRead, 0)
					n, err = w.read(octx, c, op.spec)
					sp.end(err)
				}
				now := time.Now()
				if err != nil {
					w.t.fail("mixed-open: %v", err)
				}
				results[c] = append(results[c], finished{
					phase: op.phase, at: now, lat: int64(now.Sub(op.due)), bytes: n, failed: err != nil,
				})
			}
		}(c)
	}

	out := make([]rateResult, len(rates))
	var late []int64
	due := start
	for p, rate := range rates {
		phaseStart := start.Add(per * time.Duration(p))
		phaseEnd := phaseStart.Add(per)
		mid := phaseStart.Add(per / 2)
		sampledMid := false
		out[p] = rateResult{rate: rate, seconds: per.Seconds()}
		if due.Before(phaseStart) {
			due = phaseStart
		}
		for {
			gap, write, spec := w.nextArrival(w.plan, rate)
			due = due.Add(gap)
			if !due.Before(phaseEnd) {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			if !sampledMid && !time.Now().Before(mid) {
				out[p].backlogMid, sampledMid = len(queue), true
			}
			late = append(late, int64(time.Since(due)))
			queue <- mixedOp{due: due, phase: p, write: write, spec: spec}
		}
		if wait := time.Until(phaseEnd); wait > 0 {
			time.Sleep(wait)
		}
		out[p].backlogEnd = len(queue)
	}
	close(queue)
	wg.Wait()

	res := phaseResult{seconds: time.Since(start).Seconds(), rates: out, late: late}
	for c := range results {
		for _, dn := range results[c] {
			rr := &out[dn.phase]
			phaseEnd := start.Add(per * time.Duration(dn.phase+1))
			if !dn.at.After(phaseEnd) {
				rr.completed++
			}
			rr.bytes += dn.bytes
			if dn.failed {
				rr.failed++
				continue
			}
			rr.lat = append(rr.lat, dn.lat)
		}
	}
	for p := range out {
		rr := &out[p]
		// A failed operation counts as over the limit: rank it above
		// every measured latency.
		ms := durationsMs(rr.lat)
		for i := 0; i < rr.failed; i++ {
			ms = append(ms, math.Inf(1))
		}
		rr.tailSamples = len(ms)
		rr.p50, rr.p99 = quantile(ms, 0.50), quantileNoInterp(ms, 0.99)
		rr.p90, rr.p95 = quantileNoInterp(ms, 0.90), quantileNoInterp(ms, 0.95)
		rr.meetsLimit = rr.p99 <= mixedLimitMs && rr.backlogEnd <= rr.backlogMid+mixedBacklogSlack
		res.bytes += rr.bytes
	}
	return res
}

// quantileNoInterp is the nearest-rank quantile, safe with +Inf entries
// (interpolating toward +Inf would give NaN or +Inf too early).
func quantileNoInterp(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

func (w *mixedOpen) report(doc *runDoc, res phaseResult) {
	maxOK := 0
	for i, rr := range res.rates {
		tag := fmt.Sprintf("rate%d", rr.rate)
		n := int64(rr.tailSamples)
		doc.set(tag+".p50_ms", rr.p50, "ms", n)
		doc.set(tag+".p90_ms", finite(rr.p90), "ms", n)
		doc.set(tag+".p95_ms", finite(rr.p95), "ms", n)
		doc.set(tag+".p99_ms", finite(rr.p99), "ms", n)
		doc.set(tag+".completed_per_s", float64(rr.completed)/rr.seconds, "ops/s", int64(rr.completed))
		doc.set(tag+".backlog_mid", float64(rr.backlogMid), "count", 1)
		doc.set(tag+".backlog_end", float64(rr.backlogEnd), "count", 1)
		if rr.meetsLimit && rr.rate > maxOK {
			maxOK = rr.rate
		}
		// The issue's headline latencies are the middle rate's (the only
		// rate, in a reference phase). They keep their names but carry no
		// bound: 1 300 operations are too few to hold one on this box,
		// and p99 sits on the edge of the 5 s repair pause (see
		// walk-small).
		if i == len(res.rates)/2 {
			doc.set("op_p50_ms", rr.p50, "ms", n)
			doc.set("op_p90_ms", finite(rr.p90), "ms", n)
			doc.set("op_p99_ms", finite(rr.p99), "ms", n)
		}
	}
	// The contract's latency slot pools every operation of the three
	// rates (weights 1 : 2 : 4 by count). With one operation in five a
	// write, p50 is the median read and p90 the median write; failed
	// operations rank above every latency.
	var pooled []float64
	failed := 0
	for _, rr := range res.rates {
		pooled = append(pooled, durationsMs(rr.lat)...)
		failed += rr.failed
	}
	sort.Float64s(pooled)
	for i := 0; i < failed; i++ {
		pooled = append(pooled, math.Inf(1))
	}
	np := int64(len(pooled))
	doc.setContract("all_rates_p50_ms", "op_p50_ms", finite(quantileNoInterp(pooled, 0.50)), "ms", np)
	doc.set("all_rates_p90_ms", finite(quantileNoInterp(pooled, 0.90)), "ms", np)
	top := res.rates[len(res.rates)-1]
	doc.set("max_rate_ok", float64(maxOK), "ops/s", int64(len(res.rates)))
	// The contract's throughput slot takes what the ring completed per
	// second while the top rate was offered: the rate itself while it
	// keeps up, its capacity under this mix once it does not. It is the
	// continuous counterpart of the step-valued max_rate_ok.
	doc.setContract("top_rate_completed_per_s", "ops_per_s", float64(top.completed)/top.seconds, "ops/s", int64(top.completed))
	doc.set("mixed_mb_per_s", float64(res.bytes)/1e6/res.seconds, "MB/s", int64(len(res.late)))
	lateMs := durationsMs(res.late)
	doc.set("loadgen.late_p99_ms", quantile(lateMs, 0.99), "ms", int64(len(lateMs)))
}

// finite maps +Inf (a tail made of failed operations) to a large finite
// number JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e9
	}
	return v
}

// verify reads back a sample of the files written during the run.
func (w *mixedOpen) verify(ctx context.Context, r *ring, doc *runDoc) error {
	for _, h := range w.wh {
		if err := h.close(ctx); err != nil {
			return fmt.Errorf("bench: mixed-open close volume: %w", err)
		}
	}
	acked := make([][]fileSpec, len(w.workers))
	for c, wk := range w.workers {
		acked[c] = wk.acked
	}
	return readBack(ctx, r, w.t, w.cfg.seed, w.wvols, acked)
}

func (w *mixedOpen) clients() []*session { return w.sessions }

func (w *mixedOpen) release() {
	for _, s := range w.sessions {
		s.close()
	}
}
