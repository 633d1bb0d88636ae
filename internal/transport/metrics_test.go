package transport

import (
	"slices"
	"strings"
	"testing"

	"github.com/defragdht/d2/internal/obs"
)

// TestRPCNamesCoverEveryWireType: every wire type is named, its pooled
// struct reports that type, each response counts under its request's name,
// and an error reply counts as "other".
func TestRPCNamesCoverEveryWireType(t *testing.T) {
	for typ := byte(1); typ < numWireTypes; typ++ {
		if rpcNames[typ] == "" {
			t.Errorf("wire type %d has no name", typ)
		}
		if got := msgPools[typ].New().(Message).wireType(); got != typ {
			t.Errorf("pooled struct for wire type %d reports type %d", typ, got)
		}
	}
	pairs := [][2]Message{
		{&PingReq{}, &PingResp{}},
		{&FindSuccReq{}, &FindSuccResp{}},
		{&NeighborsReq{}, &NeighborsResp{}},
		{&NotifyReq{}, &NotifyResp{}},
		{&PutReq{}, &PutResp{}},
		{&GetReq{}, &GetResp{}},
		{&RemoveReq{}, &RemoveResp{}},
		{&LoadReq{}, &LoadResp{}},
		{&SplitReq{}, &SplitResp{}},
		{&RangeReq{}, &RangeResp{}},
		{&MultiGetReq{}, &MultiGetResp{}},
		{&FetchRangeReq{}, &FetchRangeResp{}},
		{&PutPtrReq{}, &PutPtrResp{}},
		{&SampleReq{}, &SampleResp{}},
		{&StatsReq{}, &StatsResp{}},
		{&TraceFetchReq{}, &TraceFetchResp{}},
		{&HealthReq{}, &HealthResp{}},
		{&CensusReq{}, &CensusResp{}},
		{&MultiPutReq{}, &MultiPutResp{}},
	}
	if len(pairs)*2+1 != int(numWireTypes)-1 {
		t.Fatalf("%d request/response pairs for %d wire types", len(pairs), numWireTypes-1)
	}
	for _, p := range pairs {
		req, resp := RPCName(p[0]), RPCName(p[1])
		if req != resp || req == "other" {
			t.Errorf("%T is %q, %T is %q; want one shared name", p[0], req, p[1], resp)
		}
	}
	if got := RPCName(&ErrResp{}); got != "other" {
		t.Errorf("ErrResp is %q, want \"other\"", got)
	}
}

// TestRPCMetricNamesUnchanged pins the rpc labels NewRPCMetrics registers
// in each per-RPC family: dashboards and the benchmark read them by name.
func TestRPCMetricNamesUnchanged(t *testing.T) {
	want := []string{
		"ping", "find_succ", "neighbors", "notify", "put", "get",
		"multi_get", "fetch_range", "remove", "load", "split", "range",
		"put_ptr", "sample", "stats", "trace_fetch", "health", "census",
		"multi_put", "other",
	}
	slices.Sort(want)
	reg := obs.New()
	NewRPCMetrics(reg)
	families := map[string][]string{}
	collect := func(name string) {
		family, label, ok := strings.Cut(name, `{rpc="`)
		if ok {
			families[family] = append(families[family], strings.TrimSuffix(label, `"}`))
		}
	}
	reg.VisitCounters(func(name string, _ *obs.Counter) { collect(name) })
	reg.VisitHistograms(func(name string, _ *obs.Histogram) { collect(name) })
	for _, family := range []string{
		"d2_rpc_client_total", "d2_rpc_client_errors_total",
		"d2_rpc_client_latency_ns", "d2_rpc_server_total",
	} {
		got := families[family]
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s labels = %v, want %v", family, got, want)
		}
		delete(families, family)
	}
	for family := range families {
		t.Errorf("unexpected per-RPC family %s", family)
	}
}

// TestEncodeNilMessage: a handler that returns no response gets an encode
// error, which the server answers with an ErrResp, not a panic.
func TestEncodeNilMessage(t *testing.T) {
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encode(1, 0, 0, "a", nil, false); err == nil {
		t.Fatal("nil message encoded")
	}
}
