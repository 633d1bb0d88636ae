package history

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/obs"
)

// tickAt advances the engine by one sample at a fixed instant, so tests
// control the window arithmetic exactly.
func tickAt(e *Engine, sec int64) { e.Tick(time.Unix(sec, 0)) }

func TestSamplerRatesAndQuantiles(t *testing.T) {
	reg := obs.New()
	c := reg.Counter("d2_test_ops_total")
	g := reg.Gauge("d2_test_depth")
	h := reg.Histogram("d2_test_lat_ns", []int64{100, 200, 400})
	reg.GaugeFunc("d2_test_fn", func() int64 { return 7 })

	e := New(Config{Registry: reg, Node: "n1", Lookback: 10})
	tickAt(e, 100)

	c.Add(30)
	g.Set(5)
	for i := 0; i < 10; i++ {
		h.Observe(150) // second bucket
	}
	tickAt(e, 110)

	r := e.Rates()
	if r.Node != "n1" || r.WindowSec != 10 {
		t.Fatalf("rates header: %+v", r)
	}
	if got := r.Counters["d2_test_ops_total"]; got != 3.0 {
		t.Fatalf("counter rate = %v, want 3/s", got)
	}
	if got := r.Gauges["d2_test_depth"]; got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if got := r.Gauges["d2_test_fn"]; got != 7 {
		t.Fatalf("gauge func = %d, want 7", got)
	}
	q := r.Histograms["d2_test_lat_ns"]
	if q.Count != 10 || q.Mean != 150 {
		t.Fatalf("hist quantiles: %+v", q)
	}
	if q.P50 <= 100 || q.P50 > 200 {
		t.Fatalf("p50 = %v, want within (100, 200]", q.P50)
	}

	// The window reaches Lookback samples back, not just one.
	c.Add(10)
	tickAt(e, 115)
	r = e.Rates()
	if r.WindowSec != 15 {
		t.Fatalf("window = %v, want 15s (lookback clamped to history)", r.WindowSec)
	}
	if got := r.Counters["d2_test_ops_total"]; math.Abs(got-40.0/15) > 1e-9 {
		t.Fatalf("counter rate = %v, want 40/15", got)
	}
}

func TestRebuildOnRegistryGrowth(t *testing.T) {
	reg := obs.New()
	reg.Counter("a_total").Add(5)
	e := New(Config{Registry: reg})
	tickAt(e, 100)
	tickAt(e, 110)
	if e.Ticks() != 2 {
		t.Fatalf("ticks = %d, want 2", e.Ticks())
	}

	// A new registration changes the sample layout: history restarts.
	reg.Counter("b_total").Add(1)
	tickAt(e, 120)
	if e.Ticks() != 1 {
		t.Fatalf("ticks after rebuild = %d, want 1", e.Ticks())
	}
	tickAt(e, 130)
	r := e.Rates()
	if _, ok := r.Counters["a_total"]; ok {
		t.Fatal("unmoved counter should be elided from rates")
	}
	reg.Counter("b_total").Add(10)
	tickAt(e, 140)
	// Lookback reaches the post-rebuild origin at t=120: 10 ops / 20 s.
	if got := e.Rates().Counters["b_total"]; got != 0.5 {
		t.Fatalf("post-rebuild rate = %v, want 0.5/s", got)
	}
}

func TestRingWindowBounded(t *testing.T) {
	reg := obs.New()
	c := reg.Counter("x_total")
	e := New(Config{Registry: reg, Window: 4, Lookback: 10})
	for i := int64(0); i < 20; i++ {
		c.Add(1)
		tickAt(e, 100+i)
	}
	// Lookback is clamped to Window-1 = 3 retained deltas.
	if r := e.Rates(); r.WindowSec != 3 {
		t.Fatalf("window = %v, want 3s (ring keeps 4 samples)", r.WindowSec)
	}
	d := e.DumpHistory(0)
	if len(d.Points) != 4 {
		t.Fatalf("dump kept %d points, want 4", len(d.Points))
	}
	if !d.Points[0].At.Before(d.Points[3].At) {
		t.Fatal("dump not oldest-first")
	}
}

func TestHealthTransitions(t *testing.T) {
	reg := obs.New()
	g := reg.Gauge("d2_node_replica_deficit")
	events := obs.NewEventLog(64)
	e := New(Config{Registry: reg, Events: events})

	tickAt(e, 100)
	if e.State() != StateOK {
		t.Fatalf("initial state = %v, want ok", e.State())
	}

	g.Set(3) // past warn (1), below fail (64)
	tickAt(e, 110)
	if e.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded", e.State())
	}

	g.Set(100) // past fail
	tickAt(e, 120)
	if e.State() != StateFailing {
		t.Fatalf("state = %v, want failing", e.State())
	}

	g.Set(0)
	tickAt(e, 130)
	if e.State() != StateOK {
		t.Fatalf("state = %v, want ok after recovery", e.State())
	}

	// Each transition logs a health.transition event.
	var transitions int
	for _, ev := range events.Events() {
		if ev.Name == "health.transition" {
			transitions++
		}
	}
	if transitions != 3 {
		t.Fatalf("logged %d transitions, want 3", transitions)
	}

	// The status document names the check with evidence.
	g.Set(2)
	tickAt(e, 140)
	st := e.Status()
	if st.State != "degraded" {
		t.Fatalf("status state = %q", st.State)
	}
	found := false
	for _, c := range st.Checks {
		if c.Name == "replica_deficit" {
			found = true
			if c.State != "degraded" || c.Value != 2 || c.Evidence == "" {
				t.Fatalf("replica_deficit check: %+v", c)
			}
		}
	}
	if !found {
		t.Fatal("status has no replica_deficit check")
	}
	if !json.Valid(e.StatusJSON()) {
		t.Fatal("StatusJSON not valid JSON")
	}
}

func TestHealthRatioAndRateChecks(t *testing.T) {
	reg := obs.New()
	stalls := reg.Counter("d2_stream_stalls_total")
	segs := reg.Counter("d2_stream_segments_total")
	e := New(Config{Registry: reg})

	tickAt(e, 100)
	segs.Add(100)
	stalls.Add(10) // 10% stalled: under the 25% warn line
	tickAt(e, 110)
	if e.State() != StateOK {
		t.Fatalf("state = %v, want ok at 10%% stalls", e.State())
	}
	segs.Add(10)
	stalls.Add(9) // window now ~17/110... still under warn across lookback
	tickAt(e, 120)

	// Push the ratio past warn within one window.
	segs.Add(100)
	stalls.Add(60)
	tickAt(e, 200) // fresh window: previous samples beyond... lookback clamps
	if e.State() == StateOK {
		// The lookback window spans several samples; compute the expected
		// ratio to make the failure informative.
		t.Fatalf("state = %v after 60/100 stalls, want degraded", e.State())
	}
}

func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	c := reg.Counter("d2_test_ops_total")
	events := obs.NewEventLog(16)
	events.Log(obs.LevelInfo, "test.event", "k", "v")
	e := New(Config{
		Registry: reg, Events: events, Node: "n1",
		FlightDir: dir, FlightMinGap: time.Hour,
	})
	c.Add(5)
	tickAt(e, 100)
	c.Add(5)
	tickAt(e, 110)

	e.Trigger("slow_request", "op=get dur_ms=900", 0xabcd)
	waitFlightFiles(t, dir, 1)

	// Rate limit: a second trigger inside FlightMinGap is dropped.
	e.Trigger("peer_dead", "addr=x", 0)
	time.Sleep(50 * time.Millisecond)
	files := flightFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("rate limit failed: %d bundles, want 1", len(files))
	}

	raw, err := os.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("bundle not valid JSON: %v", err)
	}
	if b.Trigger != "slow_request" || b.Node != "n1" || b.Trace != "000000000000abcd" {
		t.Fatalf("bundle header: %+v", b)
	}
	if len(b.Events) == 0 || b.Events[0].Name != "test.event" {
		t.Fatalf("bundle events: %+v", b.Events)
	}
	if b.Health.State == "" || len(b.Health.Checks) == 0 {
		t.Fatalf("bundle health: %+v", b.Health)
	}
	if len(b.Rates.Counters) == 0 {
		t.Fatalf("bundle rates empty: %+v", b.Rates)
	}
	if !strings.Contains(files[0], "slow_request") {
		t.Fatalf("bundle filename %q should name the trigger", files[0])
	}
}

// TestFlightDumpErrorsAreCounted: a bundle that cannot be written — its
// FlightDir lies under a regular file — is counted and logged.
func TestFlightDumpErrorsAreCounted(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	events := obs.NewEventLog(16)
	e := New(Config{Registry: reg, Events: events, FlightDir: filepath.Join(file, "flight")})
	e.Trigger("peer_dead", "addr=x", 0)
	e.Close() // waits for the dump
	if n := reg.Counter("d2_flight_dump_errors_total").Value(); n != 1 {
		t.Fatalf("d2_flight_dump_errors_total = %d, want 1", n)
	}
	var logged bool
	for _, ev := range events.Events() {
		logged = logged || ev.Name == "flight.dump_error"
	}
	if !logged {
		t.Fatalf("no flight.dump_error event in %+v", events.Events())
	}
}

func flightFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "flight-") {
			out = append(out, ent.Name())
		}
	}
	return out
}

func waitFlightFiles(t *testing.T, dir string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(flightFiles(t, dir)) >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no flight bundle appeared in %s", dir)
}

func TestClusterReport(t *testing.T) {
	failing := &Status{
		State: "failing",
		Checks: []CheckStatus{
			{Name: "replica_deficit", State: "failing", Value: 80, Evidence: "replicas missing"},
			{Name: "pool_failfast", State: "ok"},
		},
	}
	members := []ClusterNode{
		{Addr: "a:1", State: "ok", RespBytes: 1000, Status: &Status{State: "ok"}},
		{Addr: "b:1", State: "failing", RespBytes: 1100, Status: failing},
		{Addr: "c:1", State: "ok", RespBytes: 900, Status: &Status{State: "ok"}},
	}
	r := BuildClusterReport(members)
	if r.Nodes != 3 || r.State != "failing" {
		t.Fatalf("report: state=%q nodes=%d", r.State, r.Nodes)
	}
	if len(r.Problems) != 1 || r.Problems[0].Node != "b:1" || r.Problems[0].Check != "replica_deficit" {
		t.Fatalf("problems: %+v", r.Problems)
	}
	if r.Imbalance.State != "ok" || r.Imbalance.Value > 0.1 {
		t.Fatalf("near-uniform load flagged imbalanced: %+v", r.Imbalance)
	}

	// A heavily skewed ring trips the §10 imbalance check even when every
	// node is individually healthy.
	skewed := []ClusterNode{
		{Addr: "a:1", State: "ok", RespBytes: 10000},
		{Addr: "b:1", State: "ok", RespBytes: 10},
		{Addr: "c:1", State: "ok", RespBytes: 10},
	}
	r = BuildClusterReport(skewed)
	if r.State == "ok" {
		t.Fatalf("skewed ring reported ok: imbalance=%+v", r.Imbalance)
	}
	found := false
	for _, p := range r.Problems {
		if p.Check == "load_imbalance" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no load_imbalance problem: %+v", r.Problems)
	}

	// Engine-less members ("unknown") don't poison the verdict.
	r = BuildClusterReport([]ClusterNode{{Addr: "a:1", State: "unknown", RespBytes: 5}})
	if r.State != "ok" {
		t.Fatalf("unknown-state member: %q", r.State)
	}
}

// TestSamplerSoak hammers the registry from several goroutines while the
// background sampler runs at a tight interval — the -race half of the
// verify.sh obs tier. D2_HISTORY_SOAK stretches the duration (the obs
// tier uses ~10s); the default keeps `go test` fast.
func TestSamplerSoak(t *testing.T) {
	dur := 500 * time.Millisecond
	if s := os.Getenv("D2_HISTORY_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("D2_HISTORY_SOAK: %v", err)
		}
		dur = d
	}

	reg := obs.New()
	events := obs.NewEventLog(32)
	e := New(Config{Registry: reg, Events: events, Interval: 2 * time.Millisecond, Window: 50})
	e.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := reg.Counter("soak_ops_total")
			h := reg.Histogram("soak_lat_ns", obs.LatencyBuckets)
			g := reg.Gauge("soak_depth")
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(int64(j%1000) * 1000)
				g.Set(int64(j % 10))
				if j%1000 == 0 {
					// Keep registrations appearing mid-flight so rebuilds race
					// real ticks.
					reg.Counter("soak_late_total")
				}
				if j%100 == 0 {
					events.Log(obs.LevelInfo, "soak.event", "j", j)
				}
			}
		}(i)
	}
	// Concurrent readers of the cold paths.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Rates()
			_ = e.Status()
			_ = e.State()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	e.Close()

	if e.Ticks() == 0 {
		t.Fatal("sampler took no ticks during soak")
	}
	if r := e.Rates(); r.Counters["soak_ops_total"] <= 0 {
		t.Fatalf("soak counter rate missing: %+v", r.Counters)
	}
}

// benchEngine builds an engine over a realistically sized registry:
// ~60 counters, 10 gauges, 4 gauge funcs, 8 histograms — about what a
// loaded d2node carries.
func benchEngine() (*Engine, *obs.Registry) {
	reg := obs.New()
	for _, name := range []string{
		"d2_tcp_pool_failfast_total", "d2_events_dropped_total",
		"d2_stream_stalls_total", "d2_stream_segments_total",
	} {
		reg.Counter(name)
	}
	for i := 0; i < 56; i++ {
		reg.Counter("d2_bench_counter_total" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	reg.Gauge("d2_node_replica_deficit")
	for i := 0; i < 9; i++ {
		reg.Gauge("d2_bench_gauge" + string(rune('a'+i)))
	}
	for i := 0; i < 4; i++ {
		reg.GaugeFunc("d2_bench_fn"+string(rune('a'+i)), func() int64 { return 42 })
	}
	reg.Histogram("d2_node_lookup_hops", obs.CountBuckets)
	for i := 0; i < 7; i++ {
		reg.Histogram("d2_bench_hist"+string(rune('a'+i)), obs.LatencyBuckets)
	}
	return New(Config{Registry: reg, Node: "bench"}), reg
}

// BenchmarkSamplerTick gates the full sampling tick — handle reads,
// ring write, and health evaluation — at 0 allocs/op (verify.sh obs).
func BenchmarkSamplerTick(b *testing.B) {
	e, _ := benchEngine()
	now := time.Unix(1000, 0)
	e.Tick(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Second)
		e.Tick(now)
	}
}

// BenchmarkHealthEvaluate gates the evaluator alone at 0 allocs/op.
func BenchmarkHealthEvaluate(b *testing.B) {
	e, _ := benchEngine()
	e.Tick(time.Unix(1000, 0))
	e.Tick(time.Unix(1010, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.mu.Lock()
		e.evaluateLocked()
		e.mu.Unlock()
	}
}
