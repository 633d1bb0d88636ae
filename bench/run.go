package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
)

// runOne performs one run of one workload and returns its document.
// Untraced runs measure the end-to-end metrics through the public facade;
// traced runs measure the per-layer metrics on a ring the harness wires
// itself, with the four wrappers in place.
func runOne(ctx context.Context, cfg runCfg, logf func(string, ...any)) (*runDoc, error) {
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dataRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	doc := &runDoc{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.traced, Metrics: map[string]value{},
	}
	t := &tally{}
	if cfg.traced {
		err = runTraced(ctx, cfg, dir, t, doc, logf)
	} else {
		err = runUntraced(ctx, cfg, dir, t, doc, logf)
	}
	if err != nil {
		return nil, err
	}
	doc.Attempted, doc.Failed, doc.Errors = t.attempted.Load(), t.failed.Load(), t.errs
	share := 0.0
	if doc.Attempted > 0 {
		share = float64(doc.Failed) / float64(doc.Attempted)
	}
	if !cfg.traced {
		doc.set("failed_share", share, "ratio", doc.Attempted)
	}
	return doc, nil
}

func runUntraced(ctx context.Context, cfg runCfg, dir string, t *tally, doc *runDoc, logf func(string, ...any)) error {
	// Set-up is done setupReps times and reported as the median, so one
	// slow boot does not decide setup_s; the last ring is the one measured.
	var (
		setups []float64
		r      *ring
		w      workload
	)
	for rep := 0; rep < cfg.sc.setupReps; rep++ {
		t0 := time.Now()
		var err error
		r, err = bootRing(ctx, filepath.Join(dir, fmt.Sprintf("ring-%d", rep)), nil)
		if err != nil {
			return err
		}
		logf("ring up after %.2fs", time.Since(t0).Seconds())
		w, err = newWorkload(cfg, t, nil)
		if err == nil {
			err = w.setup(ctx, r)
		}
		if err != nil {
			r.close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		logf("set-up %d/%d took %.2fs", rep+1, cfg.sc.setupReps, setups[rep])
		if rep < cfg.sc.setupReps-1 {
			w.release()
			if err := r.close(); err != nil {
				return err
			}
		}
	}
	defer r.close()
	// Failures during discarded set-ups would have returned above; the
	// tally now counts the measured ring only.
	t.attempted.Store(0)
	doc.PlanHash = w.planHash()

	rss := startRSSSampler()
	res := w.run(ctx, time.Duration(cfg.seconds*float64(time.Second)), false)
	rssMB, rssN := rss.finish()
	doc.Seconds = res.seconds
	w.report(doc, res)
	doc.setContract("rss_mb", "rss_mb", rssMB, "MB", rssN)

	disk, err := r.diskBytes()
	if err != nil {
		return err
	}
	user := w.userBytes()
	doc.setContract("disk_bytes_per_user_byte", "disk_bytes_per_user_byte",
		float64(disk)/float64(user), "ratio", user)
	err = w.verify(ctx, r, doc)
	w.release()
	if err != nil {
		return err
	}
	doc.setContract("setup_s", "setup_s", median(setups), "s", int64(len(setups)))
	doc.set("peak_rss_mb", procStatusMB("VmHWM"), "MB", 1)
	return nil
}

// spanCapacity sizes the recorder for the busiest workload (walk-small
// records on the order of 10⁵ spans a second).
func spanCapacity(seconds float64) int {
	return max(1<<20, int(seconds*400_000))
}

// ringSnapshot freezes every registry the layers keep.
type ringSnapshot struct {
	client, nodes          obs.Snapshot
	cacheHits, cacheMisses uint64
	multiGetKeys           uint64
	batchKeys              uint64
	userBytes              int64
}

func snapshotRing(r *ring, w workload) ringSnapshot {
	var s ringSnapshot
	for _, c := range w.clients() {
		s.client = obs.Merge(s.client, c.snapshot())
		h, m := c.cacheStats()
		s.cacheHits += h
		s.cacheMisses += m
	}
	for _, m := range r.members {
		s.nodes = obs.Merge(s.nodes, m.reg.Snapshot())
		s.multiGetKeys += m.tr.multiGetKeys.Load()
		s.batchKeys += m.st.batchKeys.Load()
	}
	s.userBytes = w.userBytes()
	return s
}

// headline picks the figure a traced phase is compared to its reference
// phases by: work per second for the read loops (total ÷ time — the
// reference phases are too short for a median of windows); the median
// save for write-sync (files per second depends on how many 4 MB bulk
// writes a short phase happens to hold, the median save does not); the
// median latency at the middle rate for the open loop, whose throughput
// is fixed by the schedule.
func headline(w workload, res phaseResult, name string) (v float64, higherIsBetter bool) {
	switch name {
	case wlMixedOpen, wlWriteSync:
		tmp := &runDoc{Metrics: map[string]value{}}
		w.report(tmp, res)
		if name == wlMixedOpen {
			return tmp.Metrics["op_p50_ms"].Value, false
		}
		return tmp.Metrics["save_p50_ms"].Value, false
	}
	return float64(res.ops) / res.seconds, true
}

func runTraced(ctx context.Context, cfg runCfg, dir string, t *tally, doc *runDoc, logf func(string, ...any)) error {
	rec := newRecorder(spanCapacity(cfg.seconds))
	r, err := bootRing(ctx, filepath.Join(dir, "ring"), rec)
	if err != nil {
		return err
	}
	defer r.close()
	w, err := newWorkload(cfg, t, rec)
	if err == nil {
		err = w.setup(ctx, r)
	}
	if err != nil {
		return err
	}
	doc.PlanHash = w.planHash()

	// Reference phases: same ring, same wrappers in the call path, recorder
	// off, one before and one after the traced phase so that a ring still
	// warming up (or a store still growing) does not read as tracing cost.
	// Their mean headline figure against the traced phase's is the
	// tracing overhead.
	refDur := time.Duration(cfg.seconds / 4 * float64(time.Second))
	refBefore, higher := headline(w, w.run(ctx, refDur, true), cfg.workload)

	before := snapshotRing(r, w)
	rec.on.Store(true)
	res := w.run(ctx, time.Duration(cfg.seconds*float64(time.Second)), false)
	rec.on.Store(false)
	after := snapshotRing(r, w)
	doc.Seconds = res.seconds
	logf("traced phase done: %d spans", rec.next.Load())
	refAfter, _ := headline(w, w.run(ctx, refDur, true), cfg.workload)
	refV := (refBefore + refAfter) / 2

	c := counters{
		client:       subSnapshot(after.client, before.client),
		nodes:        subSnapshot(after.nodes, before.nodes),
		cacheHits:    after.cacheHits - before.cacheHits,
		cacheMisses:  after.cacheMisses - before.cacheMisses,
		multiGetKeys: after.multiGetKeys - before.multiGetKeys,
		batchKeys:    after.batchKeys - before.batchKeys,
		writtenBytes: after.userBytes - before.userBytes,
	}
	for _, m := range r.members {
		c.nodeGauges = append(c.nodeGauges, m.reg.Snapshot())
	}
	sessions := w.clients()
	if c.census, err = sessions[0].clusterCensus(ctx); err != nil {
		return fmt.Errorf("bench: cluster census: %w", err)
	}
	members, err := sessions[0].walkRing(ctx)
	if err != nil {
		return fmt.Errorf("bench: ring walk: %w", err)
	}
	var stream []keys.Key
	for _, s := range sessions {
		stream = append(stream, s.svc.sample...)
	}

	err = w.verify(ctx, r, doc)
	w.release()
	if err != nil {
		return err
	}
	// Spans are read only once nothing can still be writing one.
	if err := r.close(); err != nil {
		return err
	}
	spans := rec.recorded()
	an := analyze(spans, c, res.seconds)
	for name, v := range an.metrics {
		doc.Metrics[name] = v
	}
	doc.Layers, doc.Wire = &an.table, an.wire
	doc.set("trace.spans", float64(len(spans)), "count", int64(len(spans)))
	doc.set("trace.dropped", float64(rec.dropped.Load()), "count", int64(len(spans)))
	if _, ok := doc.Metrics["disk.recovery_s"]; !ok {
		doc.set("disk.recovery_s", 0, "s", 0)
	}

	// The traced phase's own end-to-end figures, for reading next to the
	// layer table (never for comparison with untraced runs).
	tmp := &runDoc{Metrics: map[string]value{}}
	w.report(tmp, res)
	late := value{Unit: "ms"}
	for name, v := range tmp.Metrics {
		if name == "loadgen.late_p99_ms" {
			late = v
			continue
		}
		v.Contract = ""
		doc.Metrics["traced."+name] = v
	}
	doc.Metrics["loadgen.late_p99_ms"] = late
	trV, _ := headline(w, res, cfg.workload)
	overhead := pct(refV-trV, refV)
	if !higher {
		overhead = pct(trV-refV, refV)
	}
	doc.set("trace.overhead_pct", overhead, "%", int64(len(res.lat)))

	// Direct layer drivers, each for a fixed time.
	d := time.Duration(cfg.sc.driverSeconds * float64(time.Second))
	nsPer, lookups := driveLookupCache(members, stream, d)
	doc.set("lookupcache.lookup_ns", nsPer, "ns", lookups)
	rtt, rtts, mbps, bulks, err := driveEcho(ctx, d)
	if err != nil {
		return err
	}
	doc.set("transport.echo_rtt_us", rtt, "us", rtts)
	doc.set("transport.echo_bulk_mb_per_s", mbps, "MB/s", bulks)

	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return err
		}
		if err := writeChromeTrace(f, spans); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
