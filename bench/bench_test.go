package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testContract(t *testing.T) *contract {
	t.Helper()
	con, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return con
}

func smokeCfg(t *testing.T, workload string, traced bool) runCfg {
	return runCfg{
		workload: workload, seed: 1, seconds: 1, traced: traced,
		sc: smokeScale, clients: loadClients(), dataRoot: t.TempDir(),
	}
}

// issueMetrics are the end-to-end metrics each workload must report under
// the names later issues cite.
var issueMetrics = map[string][]string{
	wlWalkSmall:  {"walk_files_per_s", "task_p50_ms", "task_p90_ms", "task_p99_ms"},
	wlStreamRead: {"read_mb_per_s", "ttfb_p50_ms", "ttfb_p90_ms"},
	wlWriteSync:  {"write_mb_per_s", "save_p50_ms", "save_p90_ms", "restart_s"},
	wlMixedOpen:  {"op_p50_ms", "op_p90_ms", "op_p99_ms", "max_rate_ok", "loadgen.late_p99_ms"},
}

var commonMetrics = []string{"setup_s", "failed_share", "peak_rss_mb", "rss_mb", "disk_bytes_per_user_byte"}

func checkValue(t *testing.T, name string, v value, ok bool) {
	t.Helper()
	switch {
	case !ok:
		t.Errorf("metric %s missing", name)
	case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
		t.Errorf("metric %s = %v, want a finite number", name, v.Value)
	case v.Unit == "":
		t.Errorf("metric %s has no unit", name)
	}
}

// TestSmoke runs all four workloads, untraced and traced, for one second
// on a shrunken preload, and checks that every metric BENCHMARK.json and
// the issue name is present, finite and carries a unit, that no
// operation failed, and that the contract's result line is well formed.
func TestSmoke(t *testing.T) {
	con := testContract(t)
	if len(con.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness has %d", len(con.Workloads), len(workloadNames))
	}
	for i, wl := range con.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, harness has %q", i, wl.Name, workloadNames[i])
		}
	}
	// The eight runs spend most of their time waiting for ring timers, so
	// they run at once — on goroutines, not t.Parallel, which would cap
	// them at GOMAXPROCS — and are judged one by one afterwards.
	type result struct {
		doc *runDoc
		err error
	}
	results := map[string]*result{}
	var wg sync.WaitGroup
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := &result{}
			results[fmt.Sprint(name, traced)] = res
			cfg := smokeCfg(t, name, traced)
			wg.Add(1)
			go func() {
				defer wg.Done()
				res.doc, res.err = runOne(context.Background(), cfg, func(string, ...any) {})
			}()
		}
	}
	wg.Wait()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				doc, err := results[fmt.Sprint(name, traced)].doc, results[fmt.Sprint(name, traced)].err
				if err != nil {
					t.Fatal(err)
				}
				if doc.Failed != 0 || doc.Attempted < 1 {
					t.Errorf("%d attempted, %d failed: %v", doc.Attempted, doc.Failed, doc.Errors)
				}
				defs := con.EndToEnd
				if traced {
					defs = con.PerLayer
				}
				line, err := doc.contractLine(defs)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct   *bool                     `json:"correct"`
					Attempted *int64                    `json:"attempted"`
					Failed    *int64                    `json:"failed"`
					Metrics   map[string]map[string]any `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil {
					t.Fatalf("contract line is not JSON: %v\n%s", err, line)
				}
				if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(defs) {
					t.Errorf("contract line incomplete: %s", line)
				}
				byName := map[string]value{}
				for n, v := range doc.Metrics {
					byName[n] = v
					if v.Contract != "" && !traced {
						byName[v.Contract] = v
					}
				}
				for _, def := range defs {
					v, ok := byName[def.Name]
					checkValue(t, def.Name, v, ok)
				}
				if traced {
					if doc.Layers == nil || doc.Layers.OpSeconds <= 0 {
						t.Fatal("traced run has no layer table")
					}
					sum := doc.Layers.Residual
					for _, s := range doc.Layers.Self {
						sum += s
					}
					if math.Abs(sum-doc.Layers.OpSeconds) > 1e-6*doc.Layers.OpSeconds {
						t.Errorf("layer self times sum to %.6f s, operation time is %.6f s", sum, doc.Layers.OpSeconds)
					}
					if got := doc.Metrics["trace.dropped"].Value; got != 0 {
						t.Errorf("recorder dropped %v spans", got)
					}
					return
				}
				for _, n := range append(append([]string{}, commonMetrics...), issueMetrics[name]...) {
					v, ok := doc.Metrics[n]
					checkValue(t, n, v, ok)
				}
			})
		}
	}
}

// TestPlanDeterminism: the same seed generates the same operation plan,
// another seed another one, and no ring is needed to tell.
func TestPlanDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		hash := func(seed uint64) string {
			w, err := newWorkload(runCfg{workload: name, seed: seed, sc: smokeScale, clients: 2}, &tally{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return w.planHash()
		}
		a, b, c := hash(1), hash(1), hash(2)
		if a != b {
			t.Errorf("%s: seed 1 gave plans %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same plan %s", name, a)
		}
	}
}

// TestWrappedRingServesSameBytes: a ring with all four wrappers in the
// call path returns exactly what a ring built through the facade returns,
// for inline, single-block, multi-block and streamed files.
func TestWrappedRingServesSameBytes(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	const seed = 7
	wd := genWalkData(seed, smokeScale, newPlanHash())
	streamVol := genVolume("vol-wrap-stream")
	const streamSize = 300 << 10

	// read runs on its own goroutine (the two rings boot side by side), so
	// it reports through its error, not t.Fatal.
	read := func(rec *recorder) (map[string][]byte, error) {
		r, err := bootRing(ctx, filepath.Join(t.TempDir(), "ring"), rec)
		if err != nil {
			return nil, err
		}
		defer r.close()
		if rec != nil {
			rec.on.Store(true)
		}
		if err := wd.preload(ctx, r, rec); err != nil {
			return nil, err
		}
		s, err := r.connect()
		if err != nil {
			return nil, err
		}
		defer s.close()
		out := map[string][]byte{}
		for v, vi := range wd.vols {
			vol, err := s.openVol(ctx, rec, vi, false)
			if err != nil {
				return nil, err
			}
			for _, dir := range wd.files[v] {
				for _, spec := range dir {
					data, err := vol.readFile(ctx, spec.path)
					if err != nil {
						return nil, err
					}
					if checksum(data) != spec.sum {
						return nil, fmt.Errorf("%s%s: checksum differs from the generator's", vi.name, spec.path)
					}
					out[vi.name+spec.path] = data
				}
			}
		}
		w, err := s.create(ctx, streamVol.name, streamVol.priv)
		if err != nil {
			return nil, err
		}
		tv := tvol{v: w, rec: rec}
		src := rngFor(seed, "wrap-stream", 0)
		if err := tv.writeStream(ctx, "/s.bin", streamSize, func(b []byte) { fill(src, b) }); err != nil {
			return nil, err
		}
		if err := tv.sync(ctx); err != nil {
			return nil, err
		}
		data, err := tv.readFile(ctx, "/s.bin")
		if err != nil {
			return nil, err
		}
		n, sum, _, err := tv.readStream(ctx, "/s.bin", make([]byte, 64<<10))
		if err != nil || n != streamSize || sum != checksum(data) {
			return nil, fmt.Errorf("stream read: %d bytes, sum %08x, err %v; ReadFile gave %d bytes, sum %08x", n, sum, err, len(data), checksum(data))
		}
		out["stream"] = data
		return out, nil
	}

	rec := newRecorder(1 << 18)
	var (
		plain, wrapped map[string][]byte
		perr, werr     error
		wg             sync.WaitGroup
	)
	wg.Add(2)
	go func() { defer wg.Done(); plain, perr = read(nil) }()
	go func() { defer wg.Done(); wrapped, werr = read(rec) }()
	wg.Wait()
	if perr != nil || werr != nil {
		t.Fatalf("plain ring: %v; wrapped ring: %v", perr, werr)
	}
	if len(plain) != len(wrapped) || len(plain) != wd.count+1 {
		t.Fatalf("read %d files plain, %d wrapped, want %d", len(plain), len(wrapped), wd.count+1)
	}
	for path, want := range plain {
		if !bytes.Equal(wrapped[path], want) {
			t.Errorf("%s: wrapped ring returned different bytes", path)
		}
	}
	// The wrappers did see the traffic.
	seen := map[layer]int{}
	for _, s := range rec.recorded() {
		if s.end != 0 {
			seen[s.layer]++
		}
	}
	for _, l := range []layer{layFS, layClient, layCall, layServe, layStore} {
		if seen[l] == 0 {
			t.Errorf("no %s spans recorded", layerNames[l])
		}
	}
}

// TestQuartilesMatchPython pins quartiles() to what Python's
// statistics.quantiles(values, n=4) returns, since the contract's
// acceptance check is written in those terms.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 12, 11, 15, 14, 13, 19, 18, 17, 16}
	q1, q2, q3 := quartiles(v)
	// statistics.quantiles([10..19], n=4) == [11.75, 14.5, 17.25]
	if q1 != 11.75 || q2 != 14.5 || q3 != 17.25 {
		t.Errorf("quartiles = %v %v %v, want 11.75 14.5 17.25", q1, q2, q3)
	}
	if got, want := spread(v), 5.5/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestWindowMedians(t *testing.T) {
	// Three whole seconds: 10, 2 and 12 ops; the slow second must not move
	// the result, and the partial fourth second is dropped.
	var ev []done
	add := func(sec float64, n int) {
		for i := 0; i < n; i++ {
			ev = append(ev, done{at: int64(sec * 1e9), ops: 1, bytes: 100})
		}
	}
	add(0.5, 10)
	add(1.5, 2)
	add(2.5, 12)
	add(3.2, 50)
	ops, bytes := windowMedians(ev, 3.4)
	if ops != 10 || bytes != 1000 {
		t.Errorf("windowMedians = %v ops/s, %v B/s, want 10 and 1000", ops, bytes)
	}
}

func TestUnionLen(t *testing.T) {
	got := unionLen([]interval{{0, 10}, {5, 15}, {20, 30}, {22, 25}})
	if got != 25 {
		t.Errorf("unionLen = %d, want 25", got)
	}
}

// TestAnalyzeBlockingPath checks the layer accounting on a hand-built
// trace: one operation, one fs call with two overlapping client calls,
// each with one transport call served by a handler that spends part of
// its time in the engine.
func TestAnalyzeBlockingPath(t *testing.T) {
	us := int64(time.Microsecond)
	spans := []span{
		{start: 0, end: 1000 * us, layer: layOp, op: opTask, root: 1},                                 // 1
		{start: 100 * us, end: 900 * us, parent: 1, root: 1, layer: layFS, op: fsReadFile},            // 2
		{start: 200 * us, end: 600 * us, parent: 2, root: 1, layer: layClient, op: clGet},             // 3
		{start: 400 * us, end: 800 * us, parent: 2, root: 1, layer: layClient, op: clGet},             // 4
		{start: 250 * us, end: 550 * us, parent: 3, root: 1, layer: layCall, op: rpcGet},              // 5
		{start: 450 * us, end: 750 * us, parent: 4, root: 1, layer: layCall, op: rpcGet},              // 6
		{start: 300 * us, end: 500 * us, layer: layServe, op: rpcGet, node: 1, flags: flagFromClient}, // 7
		{start: 500 * us, end: 700 * us, layer: layServe, op: rpcGet, node: 1, flags: flagFromClient}, // 8
		{start: 350 * us, end: 450 * us, layer: layStore, op: stGet, node: 1},                         // 9
		{start: 550 * us, end: 650 * us, layer: layStore, op: stGet, node: 1},                         // 10
	}
	an := analyze(spans, counters{}, 1)
	tb := an.table
	if tb.Ops != 1 || math.Abs(tb.OpSeconds-1e-3) > 1e-12 {
		t.Fatalf("ops %d, op seconds %v", tb.Ops, tb.OpSeconds)
	}
	sum := tb.Residual
	for _, s := range tb.Self {
		sum += s
	}
	if math.Abs(sum-tb.OpSeconds) > 1e-12 {
		t.Errorf("rows sum to %v, want %v", sum, tb.OpSeconds)
	}
	// The operation's own 200 µs (before and after the fs call) is the
	// residual; fs holds 800 − 600 (the union of its two client calls).
	if math.Abs(tb.Residual-200e-6) > 1e-12 {
		t.Errorf("residual = %v, want 200 µs", tb.Residual)
	}
	if math.Abs(tb.Self["fs"]-200e-6) > 1e-12 {
		t.Errorf("fs self = %v, want 200 µs", tb.Self["fs"])
	}
	// Calls are 300 µs each, handlers 200 µs, engine 100 µs: a third of
	// call time is wire, a third handler, a third engine.
	wire, serve, store := tb.Self["transport"], tb.Self["node.serve"], tb.Self["store"]
	if math.Abs(wire-serve) > 1e-12 || math.Abs(serve-store) > 1e-12 {
		t.Errorf("wire %v, serve %v, store %v: want equal thirds", wire, serve, store)
	}
	if got := an.metrics["store.get_us"].Value; math.Abs(got-100) > 1e-9 {
		t.Errorf("store.get_us = %v, want 100", got)
	}
	if got := an.metrics["transport.small_wire_us"].Value; math.Abs(got-100) > 1e-9 {
		t.Errorf("transport.small_wire_us = %v, want 100", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	cases := []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10},
		{100, 120, "higher", -0.20},
		{0, 0, "lower", 0},
		{0, 0.01, "lower", 1},
	}
	for _, c := range cases {
		if got := worsening(c.a, c.b, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", c.a, c.b, c.better, got, c.want)
		}
	}
}
