package node

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/census"
	"github.com/defragdht/d2/internal/obs/history"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/transport"
)

// maxRingWalk bounds a ring walk (a broken successor chain could
// otherwise loop forever through stale entries).
const maxRingWalk = 4096

// RingMember is one node discovered by a ring walk.
type RingMember struct {
	Self  transport.PeerInfo
	Pred  transport.PeerInfo
	Succs []transport.PeerInfo
}

// WalkRing enumerates the ring by following successor pointers from the
// first reachable seed until the walk returns to its start. Nodes are
// returned in ring order starting at the entry node.
func (c *Client) WalkRing(ctx context.Context) ([]RingMember, error) {
	var start transport.PeerInfo
	var lastErr error
	for _, seed := range c.seeds {
		resp, err := transport.Expect[*transport.NeighborsResp](
			c.call(ctx, seed, &transport.NeighborsReq{}))
		if err != nil {
			lastErr = err
			continue
		}
		start = resp.Self
		break
	}
	if start.IsZero() {
		return nil, fmt.Errorf("node: no reachable seed: %w", lastErr)
	}

	var members []RingMember
	seen := make(map[transport.Addr]bool)
	cur := start
	for len(members) < maxRingWalk {
		if seen[cur.Addr] {
			break // closed the ring (or hit a successor loop)
		}
		resp, err := transport.Expect[*transport.NeighborsResp](
			c.call(ctx, cur.Addr, &transport.NeighborsReq{}))
		if err != nil {
			// Skip a dead member by stepping through the previous node's
			// successor list.
			next, ok := nextAfter(members, cur, seen)
			if !ok {
				break
			}
			cur = next
			continue
		}
		seen[cur.Addr] = true
		members = append(members, RingMember{
			Self: resp.Self, Pred: resp.Pred, Succs: resp.Succs,
		})
		if len(resp.Succs) == 0 {
			break
		}
		cur = resp.Succs[0]
	}
	return members, nil
}

// nextAfter finds an unvisited fallback successor when the walk's current
// node is unreachable.
func nextAfter(members []RingMember, dead transport.PeerInfo, seen map[transport.Addr]bool) (transport.PeerInfo, bool) {
	if len(members) == 0 {
		return transport.PeerInfo{}, false
	}
	for _, p := range members[len(members)-1].Succs {
		if !seen[p.Addr] && p.Addr != dead.Addr {
			return p, true
		}
	}
	return transport.PeerInfo{}, false
}

// load is the summary every scrape answer opens with: who the node is,
// its predecessor, its primary-responsibility bytes (§6), everything it
// stores, and its store entries — what the §10 load-imbalance metric is
// computed from, so any one scrape can compute it.
type load struct {
	Self        transport.PeerInfo
	Pred        transport.PeerInfo
	RespBytes   int64
	StoredBytes int64
	Blocks      int64
}

// scrape sends req to every ring member and hands each answer to each, in
// ring order. An unreachable member is skipped, and so is one whose answer
// each rejects (a document that does not decode); when no member gave a
// usable answer, the last rejection is returned, naming the member.
func scrape[R transport.Message](ctx context.Context, c *Client, req transport.Message, each func(R) error) error {
	members, err := c.WalkRing(ctx)
	if err != nil {
		return err
	}
	usable := 0
	var rejected error
	for _, m := range members {
		resp, err := transport.Expect[R](c.call(ctx, m.Self.Addr, req))
		if err != nil {
			continue
		}
		if err := each(resp); err != nil {
			rejected = fmt.Errorf("node: scrape %s: %w", m.Self.Addr, err)
			continue
		}
		usable++
	}
	if usable == 0 {
		return rejected
	}
	return nil
}

// NodeStats is one node's scraped observability state.
type NodeStats struct {
	load
	Snapshot obs.Snapshot
}

// ClusterStats scrapes every ring member's metrics via the StatsReq RPC,
// returning per-node stats in ID order. Unreachable members, and members
// whose snapshot does not parse, are skipped.
func (c *Client) ClusterStats(ctx context.Context) ([]NodeStats, error) {
	var out []NodeStats
	err := scrape(ctx, c, &transport.StatsReq{}, func(r *transport.StatsResp) error {
		ns := NodeStats{load: load{r.Self, r.Pred, r.RespBytes, r.StoredBytes, r.Blocks}}
		if err := json.Unmarshal(r.SnapshotJSON, &ns.Snapshot); err != nil {
			return fmt.Errorf("metrics snapshot: %w", err)
		}
		out = append(out, ns)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self.ID.Less(out[j].Self.ID) })
	return out, nil
}

// NodeHealth is one ring member's scraped health state.
type NodeHealth struct {
	load
	// State is the node's own verdict ("unknown" for engine-less nodes).
	State string
	// Status and Rates are the node's history documents (nil without an
	// engine).
	Status *history.Status
	Rates  *history.Rates
}

// ClusterHealth scrapes every ring member's health via the HealthReq
// RPC, returning per-node health in ID order. Unreachable members are
// skipped — the doctor detects their absence through the survivors'
// replica-deficit checks, not through the walk itself.
func (c *Client) ClusterHealth(ctx context.Context) ([]NodeHealth, error) {
	var out []NodeHealth
	err := scrape(ctx, c, &transport.HealthReq{}, func(r *transport.HealthResp) error {
		out = append(out, NodeHealth{
			load:   load{r.Self, r.Pred, r.RespBytes, r.StoredBytes, r.Blocks},
			State:  r.State,
			Status: history.ParseStatus(r.StatusJSON),
			Rates:  history.ParseRates(r.RatesJSON),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self.ID.Less(out[j].Self.ID) })
	return out, nil
}

// ClusterReport gathers ClusterHealth and evaluates cluster-level checks
// (§10 load imbalance, worst member state, per-node problems) — the
// document behind `d2ctl doctor`.
func (c *Client) ClusterReport(ctx context.Context) (history.ClusterReport, error) {
	nodes, err := c.ClusterHealth(ctx)
	if err != nil {
		return history.ClusterReport{}, err
	}
	members := make([]history.ClusterNode, 0, len(nodes))
	for _, n := range nodes {
		members = append(members, history.ClusterNode{
			Addr:        string(n.Self.Addr),
			State:       n.State,
			RespBytes:   n.RespBytes,
			StoredBytes: n.StoredBytes,
			Blocks:      n.Blocks,
			Status:      n.Status,
			Rates:       n.Rates,
		})
	}
	return history.BuildClusterReport(members), nil
}

// NodeCensus is one ring member's scraped placement census.
type NodeCensus struct {
	load
	// Report is the node's census document (nil when its answer could
	// not be parsed).
	Report *census.Report
}

// ClusterCensus scrapes every ring member's placement census via the
// CensusReq RPC and merges the per-node reports into the §5-style
// cluster metrics (locality score, per-volume fragmentation, §10
// imbalance, replica spread). Per-node details ride along in ID order;
// unreachable members are skipped.
func (c *Client) ClusterCensus(ctx context.Context) ([]NodeCensus, *census.Cluster, error) {
	var out []NodeCensus
	err := scrape(ctx, c, &transport.CensusReq{}, func(r *transport.CensusResp) error {
		out = append(out, NodeCensus{
			load:   load{r.Self, r.Pred, r.RespBytes, r.StoredBytes, r.Blocks},
			Report: census.ParseReport(r.ReportJSON),
		})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self.ID.Less(out[j].Self.ID) })
	reports := make([]census.NodeReport, 0, len(out))
	for _, n := range out {
		reports = append(reports, census.NodeReport{
			Addr: string(n.Self.Addr),
			ID:   n.Self.ID.Short(),
			Rep:  n.Report,
		})
	}
	return out, census.BuildCluster(reports), nil
}

// FetchClusterTrace scrapes every ring member's span sink for one trace
// (TraceFetch RPC), merges the results with the client's own local spans,
// and returns the combined set sorted by start time — the raw material
// for tracing.Assemble's cross-node span tree. Unreachable members are
// skipped: a partial tree still renders, with the missing node's spans
// surfacing as orphans.
func (c *Client) FetchClusterTrace(ctx context.Context, trace uint64) ([]tracing.Span, error) {
	if trace == 0 {
		return nil, fmt.Errorf("node: FetchClusterTrace needs a trace ID")
	}
	var spans []tracing.Span
	err := scrape(ctx, c, &transport.TraceFetchReq{Trace: trace}, func(r *transport.TraceFetchResp) error {
		spans = append(spans, r.Spans...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The client's own spans (op roots, lookups, batch groups) live in its
	// local sink, not on any ring member.
	if sink := c.tracer.Sink(); sink != nil {
		spans = append(spans, sink.Trace(trace)...)
	}
	return tracing.SortedByStart(spans), nil
}
