package node

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/transport"
)

// dispatch routes one inbound RPC to its handler. ctx carries the
// caller's trace position (never its cancellation); handlers that fan out
// further RPCs thread it through so replication and forwards join the
// trace. The traced entry path is the handle wrapper in trace.go.
func (n *Node) dispatch(ctx context.Context, from transport.Addr, req transport.Message) (transport.Message, error) {
	switch r := req.(type) {
	case *transport.PingReq:
		return &transport.PingResp{Self: n.Self()}, nil
	case *transport.FindSuccReq:
		return n.handleFindSucc(r), nil
	case *transport.NeighborsReq:
		return n.handleNeighbors(), nil
	case *transport.NotifyReq:
		n.handleNotify(r.Cand)
		return &transport.NotifyResp{}, nil
	case *transport.PutReq:
		return n.handlePut(ctx, r)
	case *transport.MultiPutReq:
		return n.handleMultiPut(ctx, r)
	case *transport.GetReq:
		return n.handleGet(ctx, r), nil
	case *transport.MultiGetReq:
		return n.handleMultiGet(ctx, r), nil
	case *transport.FetchRangeReq:
		return n.handleFetchRange(r), nil
	case *transport.RemoveReq:
		return n.handleRemove(ctx, r), nil
	case *transport.PutPtrReq:
		n.st.PutPointer(r.Key, r.Target, r.Size, time.Now())
		n.metrics.ptrInstalls.Inc()
		return &transport.PutPtrResp{}, nil
	case *transport.LoadReq:
		return &transport.LoadResp{
			Self: n.Self(), RespBytes: n.RespBytes(), StoredBytes: n.StoredBytes(),
		}, nil
	case *transport.SplitReq:
		return n.handleSplit(ctx), nil
	case *transport.RangeReq:
		return n.handleRange(r), nil
	case *transport.SampleReq:
		return n.handleSample(ctx, r), nil
	case *transport.StatsReq:
		return n.handleStats(), nil
	case *transport.HealthReq:
		return n.handleHealth(), nil
	case *transport.CensusReq:
		return n.handleCensus(), nil
	case *transport.TraceFetchReq:
		return n.handleTraceFetch(r), nil
	default:
		return nil, fmt.Errorf("node: unknown request %T", req)
	}
}

// load is the summary every scrape answer opens with (see the client's
// load): self, predecessor, primary-responsibility bytes, stored bytes,
// store entries.
func (n *Node) load() (self, pred transport.PeerInfo, respBytes, storedBytes, blocks int64) {
	return n.Self(), n.Predecessor(), n.RespBytes(), n.StoredBytes(), int64(n.st.Len())
}

// handleStats answers the admin plane's scrape: load summary plus the
// node's full metrics snapshot, JSON-encoded for obs.Merge at the scraper.
func (n *Node) handleStats() transport.Message {
	snap, err := json.Marshal(n.reg.Snapshot())
	if err != nil {
		snap = nil
	}
	r := &transport.StatsResp{SnapshotJSON: snap}
	r.Self, r.Pred, r.RespBytes, r.StoredBytes, r.Blocks = n.load()
	return r
}

// handleHealth answers the health engine's scrape: the node's verdict
// and derived-rate documents plus the load summary the doctor needs for
// the cluster-level §10 imbalance check. Nodes without an engine (bare
// test clusters) answer "unknown" with nil documents.
func (n *Node) handleHealth() transport.Message {
	r := &transport.HealthResp{State: "unknown"}
	r.Self, r.Pred, r.RespBytes, r.StoredBytes, r.Blocks = n.load()
	if e := n.cfg.Health; e != nil {
		r.State = e.State().String()
		r.StatusJSON = e.StatusJSON()
		r.RatesJSON = e.RatesJSON()
	}
	return r
}

// handleCensus answers the placement-census scrape: the node's latest
// sweep report plus the load summary, so d2ctl frag/map can compute
// the §5 locality metrics and §10 imbalance in one ring walk.
func (n *Node) handleCensus() transport.Message {
	r := &transport.CensusResp{ReportJSON: n.census.ReportJSON()}
	r.Self, r.Pred, r.RespBytes, r.StoredBytes, r.Blocks = n.load()
	return r
}

// owns reports whether this node owns key k: k ∈ (pred, self]. A node
// without a predecessor claims the whole ring only when it is genuinely
// alone (bootstrap): a node that merely lost its predecessor during churn
// must not over-claim keys it cannot serve — its predecessor-side
// neighbor asserts this node's range instead (the Done-succ branch of
// FindSucc).
func (n *Node) owns(k keys.Key) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred.IsZero() || n.pred.Addr == n.self.Addr {
		return n.succs[0].Addr == n.self.Addr && len(n.links) == 0
	}
	return k.Between(n.pred.ID, n.self.ID)
}

// handleFindSucc answers one routing step: done if we own the key or our
// first successor does; otherwise the best next hop.
func (n *Node) handleFindSucc(r *transport.FindSuccReq) transport.Message {
	if n.owns(r.Key) {
		return &transport.FindSuccResp{Done: true, Node: n.Self(), Pred: n.Predecessor()}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	succ := n.succs[0]
	if succ.Addr == n.self.Addr && !n.pred.IsZero() && n.pred.Addr != n.self.Addr {
		// Two-node bootstrap: our notifier is both predecessor and
		// successor until the next stabilization round.
		succ = n.pred
	}
	if succ.Addr != n.self.Addr && r.Key.Between(n.self.ID, succ.ID) {
		return &transport.FindSuccResp{Done: true, Node: succ, Pred: n.self}
	}
	// Greedy: the closest preceding node among successors and long links.
	best := succ
	bestDist := n.self.ID.Distance(best.ID)
	keyDist := n.self.ID.Distance(r.Key)
	consider := func(p transport.PeerInfo) {
		if p.IsZero() || p.Addr == n.self.Addr {
			return
		}
		d := n.self.ID.Distance(p.ID)
		if d.Compare(keyDist) <= 0 && bestDist.Less(d) {
			best = p
			bestDist = d
		}
	}
	for _, p := range n.succs {
		consider(p)
	}
	for _, p := range n.links {
		consider(p)
	}
	return &transport.FindSuccResp{Done: false, Node: best}
}

func (n *Node) handleNeighbors() transport.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	succs := make([]transport.PeerInfo, len(n.succs))
	copy(succs, n.succs)
	return &transport.NeighborsResp{Self: n.self, Pred: n.pred, Succs: succs}
}

// handleNotify adopts a candidate predecessor if it is closer than the
// current one.
func (n *Node) handleNotify(cand transport.PeerInfo) {
	if cand.IsZero() || cand.Addr == n.tr.Addr() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred.IsZero() || n.pred.Addr == n.self.Addr ||
		cand.ID.InOpenInterval(n.pred.ID, n.self.ID) {
		n.pred = cand
	}
}

// handleSample implements random-walk peer sampling: forward the request
// with one fewer hop to a random neighbor, or answer with self.
func (n *Node) handleSample(ctx context.Context, r *transport.SampleReq) transport.Message {
	if r.Hops <= 0 {
		return &transport.SampleResp{Peer: n.Self()}
	}
	n.mu.Lock()
	pool := make([]transport.PeerInfo, 0, len(n.succs)+len(n.links))
	for _, p := range n.succs {
		if p.Addr != n.self.Addr {
			pool = append(pool, p)
		}
	}
	pool = append(pool, n.links...)
	var next transport.PeerInfo
	if len(pool) > 0 {
		next = pool[n.rng.IntN(len(pool))]
	}
	n.mu.Unlock()
	if next.IsZero() {
		return &transport.SampleResp{Peer: n.Self()}
	}
	// ctx carries the trace position only (no caller cancellation), so the
	// forwarded hop joins the walk's trace under its own deadline.
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	resp, err := transport.Expect[*transport.SampleResp](
		n.call(ctx, next.Addr, &transport.SampleReq{Hops: r.Hops - 1}))
	if err != nil {
		return &transport.SampleResp{Peer: n.Self()}
	}
	return resp
}

// stabilize runs one round of ring maintenance: verify the successor,
// adopt its predecessor when closer, refresh the successor list, and
// notify.
func (n *Node) stabilize() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	n.mu.Lock()
	self := n.self
	succ := n.succs[0]
	pred := n.pred
	n.mu.Unlock()
	if succ.Addr == self.Addr {
		// Alone, or our successor list collapsed. If someone notified us
		// (two-node bootstrap), they are both our predecessor and our
		// successor.
		if pred.IsZero() || pred.Addr == self.Addr {
			n.rejoinViaLink(ctx)
			return
		}
		n.mu.Lock()
		n.succs = []transport.PeerInfo{pred}
		n.mu.Unlock()
		succ = pred
	}
	resp, err := transport.Expect[*transport.NeighborsResp](
		n.call(ctx, succ.Addr, &transport.NeighborsReq{}))
	if err != nil {
		n.dropSuccessor(succ)
		return
	}
	if !resp.Self.ID.Equal(succ.ID) {
		// The successor changed its ring position (a balance move):
		// treat the stale entry as departed and remember the new spot.
		n.dropSuccessor(succ)
		n.learnLink(resp.Self)
		return
	}
	n.verifyPred(ctx)
	n.mu.Lock()
	// succ.pred may sit between us and succ: adopt it as new successor.
	if !resp.Pred.IsZero() && resp.Pred.Addr != self.Addr &&
		resp.Pred.ID.InOpenInterval(self.ID, succ.ID) {
		n.succs = append([]transport.PeerInfo{resp.Pred}, n.succs...)
	}
	// Merge the successor's list after our own head.
	merged := []transport.PeerInfo{n.succs[0]}
	if n.succs[0].Addr == succ.Addr {
		merged = append(merged, resp.Succs...)
	} else {
		merged = append(merged, succ)
		merged = append(merged, resp.Succs...)
	}
	n.succs = merged
	n.trimSuccsLocked()
	head := n.succs[0]
	n.mu.Unlock()

	_, _ = transport.Expect[*transport.NotifyResp](
		n.call(ctx, head.Addr, &transport.NotifyReq{Cand: self}))
	n.learnLink(head)
	n.probeOneLink(ctx)
}

// rejoinViaLink re-enters the ring through a long link after the
// successor list collapsed. Heavy balance churn can invalidate every
// successor entry (each move changes a node's ID) faster than
// replacements are learned, leaving a node isolated — claiming nothing
// and reachable by stale links — even though its link table still names
// live peers. Look up our own ID from a link and adopt the answer as
// successor, exactly as an initial Join does.
func (n *Node) rejoinViaLink(ctx context.Context) {
	n.mu.Lock()
	var start transport.Addr
	if len(n.links) > 0 {
		start = n.links[n.rng.IntN(len(n.links))].Addr
	}
	id := n.self.ID
	n.mu.Unlock()
	if start == "" {
		return // genuinely alone: nothing to rejoin
	}
	owner, pred, err := n.iterLookup(ctx, start, id)
	if err != nil || owner.Addr == n.tr.Addr() {
		return
	}
	n.mu.Lock()
	if n.pred.IsZero() && !pred.IsZero() && pred.Addr != n.tr.Addr() {
		n.pred = pred
	}
	n.succs = append([]transport.PeerInfo{owner}, n.succs...)
	n.trimSuccsLocked()
	self := n.self
	n.mu.Unlock()
	n.metrics.rejoins.Inc()
	n.events.Log(obs.LevelWarn, "ring.rejoin",
		"via", string(start), "succ", string(owner.Addr))
	_, _ = transport.Expect[*transport.NotifyResp](
		n.call(ctx, owner.Addr, &transport.NotifyReq{Cand: self}))
}

// probeOneLink pings a random long link, dropping it (and refreshing its
// recorded position) if dead or moved, so routing state sheds crashed
// nodes within a few stabilization rounds.
func (n *Node) probeOneLink(ctx context.Context) {
	n.mu.Lock()
	if len(n.links) == 0 {
		n.mu.Unlock()
		return
	}
	i := n.rng.IntN(len(n.links))
	link := n.links[i]
	n.mu.Unlock()

	resp, err := transport.Expect[*transport.PingResp](
		n.call(ctx, link.Addr, &transport.PingReq{}))
	if err == nil && resp.Self.ID.Equal(link.ID) {
		return
	}
	n.mu.Lock()
	out := n.links[:0]
	for _, l := range n.links {
		if l.Addr != link.Addr {
			out = append(out, l)
		}
	}
	n.links = out
	n.mu.Unlock()
	if err == nil {
		n.learnLink(resp.Self) // moved, not dead
	}
}

// verifyPred clears a dead or relocated predecessor so notifies can
// install the true one.
func (n *Node) verifyPred(ctx context.Context) {
	pred := n.Predecessor()
	if pred.IsZero() || pred.Addr == n.tr.Addr() {
		return
	}
	resp, err := transport.Expect[*transport.PingResp](
		n.call(ctx, pred.Addr, &transport.PingReq{}))
	if err != nil || !resp.Self.ID.Equal(pred.ID) {
		n.mu.Lock()
		if n.pred.Addr == pred.Addr {
			n.pred = transport.PeerInfo{}
		}
		n.mu.Unlock()
	}
}

// trimSuccsLocked dedups the successor list, removes self, keeps ring
// order, and caps the length. Callers hold n.mu.
func (n *Node) trimSuccsLocked() {
	seen := map[transport.Addr]bool{}
	out := n.succs[:0]
	for _, p := range n.succs {
		if p.IsZero() || p.Addr == n.self.Addr || seen[p.Addr] {
			continue
		}
		seen[p.Addr] = true
		out = append(out, p)
		if len(out) == n.cfg.SuccListLen {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, n.self)
	}
	n.succs = out
}

// dropSuccessor removes a dead successor and promotes the next.
func (n *Node) dropSuccessor(dead transport.PeerInfo) {
	n.metrics.succDrops.Inc()
	n.events.Log(obs.LevelInfo, "ring.drop_succ", "addr", string(dead.Addr))
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.succs[:0]
	for _, p := range n.succs {
		if p.Addr != dead.Addr {
			out = append(out, p)
		}
	}
	n.succs = out
	if len(n.succs) == 0 {
		n.succs = []transport.PeerInfo{n.self}
	}
	if n.pred.Addr == dead.Addr {
		n.pred = transport.PeerInfo{}
	}
	// Purge from links too.
	links := n.links[:0]
	for _, p := range n.links {
		if p.Addr != dead.Addr {
			links = append(links, p)
		}
	}
	n.links = links
}

// learnLink remembers a peer in the long-link table (random replacement
// once full), giving routing its small-world shortcuts.
func (n *Node) learnLink(p transport.PeerInfo) {
	if p.IsZero() || p.Addr == n.tr.Addr() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		if l.Addr == p.Addr {
			return
		}
	}
	if len(n.links) < n.cfg.MaxLinks {
		n.links = append(n.links, p)
		return
	}
	n.links[n.rng.IntN(len(n.links))] = p
}

// iterLookup drives an iterative lookup starting from the given address,
// returning the owner and its predecessor.
func (n *Node) iterLookup(ctx context.Context, start transport.Addr, k keys.Key) (owner, pred transport.PeerInfo, err error) {
	cur := start
	for hops := 0; hops < 128; hops++ {
		resp, err := transport.Expect[*transport.FindSuccResp](
			n.call(ctx, cur, &transport.FindSuccReq{Key: k}))
		if err != nil {
			return transport.PeerInfo{}, transport.PeerInfo{}, err
		}
		n.learnLink(resp.Node)
		if resp.Done {
			n.metrics.lookupHops.Observe(int64(hops + 1))
			return resp.Node, resp.Pred, nil
		}
		if resp.Node.Addr == cur {
			return transport.PeerInfo{}, transport.PeerInfo{}, fmt.Errorf("node: lookup stuck at %s", cur)
		}
		cur = resp.Node.Addr
	}
	return transport.PeerInfo{}, transport.PeerInfo{}, fmt.Errorf("node: lookup for %s exceeded hop limit", k.Short())
}

// Lookup finds the owner of key k from this node's own routing state.
func (n *Node) Lookup(ctx context.Context, k keys.Key) (owner, pred transport.PeerInfo, err error) {
	if n.owns(k) {
		return n.Self(), n.Predecessor(), nil
	}
	return n.iterLookup(ctx, n.tr.Addr(), k)
}
