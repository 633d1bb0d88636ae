package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"sync"
	"time"
)

// streamRead is the bulk path: a few large files, each read to EOF
// through ReadStream. Files are long enough for the stream window to
// ramp from one segment to its cap.
type streamRead struct {
	cfg  runCfg
	t    *tally
	rec  *recorder
	hash string

	vols  []volInfo
	specs []fileSpec // one file per volume
	total int64

	sessions []*session
	handles  [][]tvol // [client][volume]
	rngs     []*rand.Rand
}

const streamPath = "/stream.bin"

func streamVolName(i int) string { return fmt.Sprintf("vol-s%d", i) }

func newStreamRead(cfg runCfg, t *tally, rec *recorder) *streamRead {
	ph := newPlanHash()
	w := &streamRead{cfg: cfg, t: t, rec: rec}
	for i := 0; i < cfg.sc.streamFiles; i++ {
		w.vols = append(w.vols, genVolume(streamVolName(i)))
		// The checksum is computed by the generator, chunk by chunk, the
		// way the preload will produce the bytes.
		h := crc32.New(castagnoli)
		r := rngFor(cfg.seed, "stream-file", i)
		buf := make([]byte, 256<<10)
		for left := cfg.sc.streamBytes; left > 0; {
			n := min(len(buf), left)
			fill(r, buf[:n])
			h.Write(buf[:n])
			left -= n
		}
		spec := fileSpec{vol: i, path: streamPath, size: cfg.sc.streamBytes, sum: h.Sum32()}
		w.specs = append(w.specs, spec)
		w.total += int64(spec.size)
		ph.add("stream-file", i, spec.size, spec.sum)
	}
	for c := 0; c < cfg.clients; c++ {
		r := rngFor(cfg.seed, "stream-ops", c)
		for i := 0; i < 1024; i++ {
			ph.add("stream", c, r.IntN(cfg.sc.streamFiles))
		}
		w.rngs = append(w.rngs, rngFor(cfg.seed, "stream-ops", c))
	}
	w.hash = ph.sum()
	return w
}

func (w *streamRead) planHash() string { return w.hash }
func (w *streamRead) userBytes() int64 { return w.total }

func (w *streamRead) setup(ctx context.Context, r *ring) error {
	err := parallel(len(w.vols), preloadWriters, func(i int) error {
		s, err := r.connect()
		if err != nil {
			return err
		}
		defer s.close()
		vol, err := s.create(ctx, w.vols[i].name, w.vols[i].priv)
		if err != nil {
			return err
		}
		tv := tvol{v: vol}
		src := rngFor(w.cfg.seed, "stream-file", i)
		if err := tv.writeStream(ctx, streamPath, w.specs[i].size, func(b []byte) { fill(src, b) }); err != nil {
			return err
		}
		return tv.close(ctx)
	})
	if err != nil {
		return fmt.Errorf("bench: stream-read preload: %w", err)
	}
	w.handles = make([][]tvol, w.cfg.clients)
	for c := 0; c < w.cfg.clients; c++ {
		s, err := r.connect()
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, s)
		for _, vi := range w.vols {
			h, err := s.openVol(ctx, nil, vi, false)
			if err != nil {
				return err
			}
			h.rec = w.rec
			w.handles[c] = append(w.handles[c], h)
		}
	}
	// Warm pass: every client streams every file once, so connection
	// pools are dialled and lookup caches cover the files' key ranges.
	return parallel(w.cfg.clients, w.cfg.clients, func(c int) error {
		buf := make([]byte, 256<<10)
		for i := range w.vols {
			if _, _, err := w.stream(ctx, c, i, buf); err != nil {
				return fmt.Errorf("bench: stream-read warm pass: %w", err)
			}
		}
		return nil
	})
}

// stream reads file i to EOF on client c and verifies length and CRC.
func (w *streamRead) stream(ctx context.Context, c, i int, buf []byte) (int64, time.Duration, error) {
	n, sum, ttfb, err := w.handles[c][i].readStream(ctx, streamPath, buf)
	if err != nil {
		return n, ttfb, err
	}
	if n != int64(w.specs[i].size) || sum != w.specs[i].sum {
		return 0, ttfb, fmt.Errorf("%s%s: content mismatch (%d bytes)", w.vols[i].name, streamPath, n)
	}
	return n, ttfb, nil
}

func (w *streamRead) run(ctx context.Context, d time.Duration, _ bool) phaseResult {
	type part struct {
		ttfb   []int64
		events []done
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
			buf := make([]byte, 256<<10)
			rng := w.rngs[c]
			for time.Now().Before(deadline) {
				i := rng.IntN(len(w.vols))
				w.t.attempted.Add(1)
				octx, sp := w.rec.start(ctx, layOp, opStream, 0)
				n, ttfb, err := w.stream(octx, c, i, buf)
				sp.end(err)
				if err != nil {
					w.t.fail("stream-read: %v", err)
					continue
				}
				p.ttfb = append(p.ttfb, int64(ttfb))
				p.events = append(p.events, done{at: int64(time.Since(start)), ops: 1, bytes: n})
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{seconds: time.Since(start).Seconds()}
	for _, p := range parts {
		res.lat = append(res.lat, p.ttfb...)
		res.events = append(res.events, p.events...)
	}
	res.total()
	return res
}

func (w *streamRead) report(doc *runDoc, res phaseResult) {
	ms := durationsMs(res.lat)
	n := int64(len(ms))
	files, bytes := windowMedians(res.events, res.seconds)
	doc.setContract("stream_files_per_s", "ops_per_s", files, "files/s", res.ops)
	doc.set("read_mb_per_s", bytes/1e6, "MB/s", res.ops)
	doc.setContract("ttfb_p50_ms", "op_p50_ms", quantile(ms, 0.50), "ms", n)
	// p90, not p99: a run completes a few hundred streams.
	doc.set("ttfb_p90_ms", quantile(ms, 0.90), "ms", n)
}

func (w *streamRead) verify(context.Context, *ring, *runDoc) error { return nil }

func (w *streamRead) clients() []*session { return w.sessions }

func (w *streamRead) release() {
	for _, s := range w.sessions {
		s.close()
	}
}
