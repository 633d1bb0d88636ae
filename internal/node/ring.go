package node

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
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
// first live successor does; otherwise the best next hop. Peers the
// request avoids count as gone, so the predecessor of a dead node answers
// with the successor after it.
func (n *Node) handleFindSucc(r *transport.FindSuccReq) transport.Message {
	if n.owns(r.Key) {
		return &transport.FindSuccResp{Done: true, Node: n.Self(), Pred: n.Predecessor()}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	skip := func(p transport.PeerInfo) bool {
		return p.IsZero() || p.Addr == n.self.Addr || slices.Contains(r.Avoid, p.Addr)
	}
	succ := n.self
	if i := slices.IndexFunc(n.succs, func(p transport.PeerInfo) bool { return !skip(p) }); i >= 0 {
		succ = n.succs[i]
	} else if !skip(n.pred) {
		// Our successor list collapsed while a predecessor remains: it is
		// the nearest successor we know of until the next round.
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
		if skip(p) {
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

// handleNotify takes the notifier in as a neighbour on whichever side it
// is closer than the current one: as predecessor when it lies in (pred,
// self), as first successor when it lies in (self, succs[0]) or we are
// alone. A predecessor that notifies from a new ID has moved away (§6) and
// is forgotten; the node now before us notifies us in turn. Any change
// runs a round now, and so does a notify from our first successor that is
// not also our predecessor: its successor list changed, and ours is built
// from it.
func (n *Node) handleNotify(cand transport.PeerInfo) {
	if cand.IsZero() || cand.Addr == n.tr.Addr() {
		return
	}
	n.mu.Lock()
	changed := false
	switch pred := n.pred; {
	case pred == cand:
	case pred.IsZero() || pred.Addr == n.self.Addr || cand.ID.InOpenInterval(pred.ID, n.self.ID):
		if !n.closerSuccessorLocked(cand) {
			n.pred, changed = cand, true
		}
	case cand.Addr == pred.Addr:
		n.pred, changed = transport.PeerInfo{}, true
	}
	if head := n.succs[0]; head.Addr == n.self.Addr || cand.ID.InOpenInterval(n.self.ID, head.ID) {
		n.succs = append([]transport.PeerInfo{cand}, n.succs...)
		n.trimSuccsLocked()
		changed = true
	}
	fromSucc := cand.Addr == n.succs[0].Addr && cand.Addr != n.pred.Addr
	n.mu.Unlock()
	if changed || fromSucc {
		n.kick()
	}
}

// closerSuccessorLocked reports whether our successor list names a node
// between cand and us, so that cand cannot be our predecessor. It keeps a
// node without one from adopting a successor that notifies it because its
// list changed. Callers hold n.mu.
func (n *Node) closerSuccessorLocked(cand transport.PeerInfo) bool {
	return slices.ContainsFunc(n.succs, func(s transport.PeerInfo) bool {
		return s.ID.InOpenInterval(cand.ID, n.self.ID)
	})
}

// notify tells each peer in to (once, skipping empty entries and
// ourselves) that cand is its neighbour; see handleNotify.
func (n *Node) notify(ctx context.Context, cand transport.PeerInfo, to ...transport.PeerInfo) {
	for i, p := range to {
		if p.IsZero() || p.Addr == n.tr.Addr() ||
			slices.ContainsFunc(to[:i], func(q transport.PeerInfo) bool { return q.Addr == p.Addr }) {
			continue
		}
		_, _ = transport.Expect[*transport.NotifyResp](
			n.call(ctx, p.Addr, &transport.NotifyReq{Cand: cand}))
	}
}

// linkIn is the one step by which a node enters the ring at a position,
// on a Join and on a §6 move: it takes self, pred and succs (succs[0]
// first) as its view, notifies its successor and predecessor, so each
// takes it in before linkIn returns, and runs a round now to refresh its
// successor list. That round, and the predecessor's, tell the nodes before
// them in turn (stabilize), so every successor list that must name the new
// node does within a few round trips.
func (n *Node) linkIn(ctx context.Context, self, pred transport.PeerInfo, succs []transport.PeerInfo) {
	if pred.Addr == self.Addr {
		pred = transport.PeerInfo{}
	}
	n.mu.Lock()
	n.self, n.pred, n.succs = self, pred, succs
	n.trimSuccsLocked()
	succ := n.succs[0]
	n.mu.Unlock()
	n.notify(ctx, self, succ, pred)
	n.kick()
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
// notify the head. A round whose list differs from the last one's also
// notifies the predecessor, so a change travels back through the nodes
// whose lists must name it and stops at the first list it leaves as it
// was. A successor found dead or moved is dropped, and the next round runs
// at once with the one after it.
func (n *Node) stabilize() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	n.mu.Lock()
	self := n.self
	succ := n.succs[0]
	pred := n.pred
	n.mu.Unlock()
	if succ.Addr == self.Addr {
		// Alone, or our successor list collapsed. A predecessor we still
		// have is the nearest successor we know of.
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
		n.kick()
		return
	}
	if !resp.Self.ID.Equal(succ.ID) {
		// The successor changed its ring position (a balance move):
		// treat the stale entry as departed and remember the new spot.
		n.dropSuccessor(succ)
		n.learnLink(resp.Self)
		n.kick()
		return
	}
	n.verifyPred(ctx)
	n.mu.Lock()
	// succ.pred may sit between us and succ: adopt it as new successor.
	if !resp.Pred.IsZero() && resp.Pred.Addr != self.Addr &&
		resp.Pred.ID.InOpenInterval(self.ID, succ.ID) {
		n.succs = append([]transport.PeerInfo{resp.Pred}, n.succs...)
	}
	// Merge the successor's list after our own head, and keep our own
	// tail behind it: a short answer — a node restarted at its old address
	// answers with its lone view until it joins — never shrinks our list.
	merged := []transport.PeerInfo{n.succs[0]}
	if n.succs[0].Addr != succ.Addr {
		merged = append(merged, succ)
	}
	merged = append(append(merged, resp.Succs...), n.succs[1:]...)
	n.succs = merged
	n.trimSuccsLocked()
	to := []transport.PeerInfo{n.succs[0]}
	if !slices.Equal(n.succs, n.lastSuccs) {
		to = append(to, n.pred)
		n.lastSuccs = slices.Clone(n.succs)
	}
	n.mu.Unlock()

	n.notify(ctx, self, to...)
	n.learnLink(to[0])
	n.probeOneLink(ctx)
}

// rejoinViaLink re-enters the ring through a long link after the
// successor list collapsed. Heavy balance churn can invalidate every
// successor entry (each move changes a node's ID) faster than
// replacements are learned, leaving a node isolated — claiming nothing
// and reachable by stale links — even though its link table still names
// live peers. It joins again through a link, exactly as an initial Join.
func (n *Node) rejoinViaLink(ctx context.Context) {
	n.mu.Lock()
	var start transport.Addr
	if len(n.links) > 0 {
		start = n.links[n.rng.IntN(len(n.links))].Addr
	}
	n.mu.Unlock()
	if start == "" {
		return // genuinely alone: nothing to rejoin
	}
	if n.Join(ctx, start) != nil {
		return
	}
	n.metrics.rejoins.Inc()
	n.events.Log(obs.LevelWarn, "ring.rejoin",
		"via", string(start), "succ", string(n.Successor().Addr))
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
	n.dropLink(link.Addr)
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

// maxLinks caps the long-link table.
const maxLinks = 16

// trimSuccsLocked dedups the successor list, removes self, keeps ring
// order, and caps the length at max(r, 4). It ends where it comes back to
// our own ID: in a ring smaller than the list, a dead node past that point
// is never contacted and would pass from list to list. Callers hold n.mu.
func (n *Node) trimSuccsLocked() {
	seen := map[transport.Addr]bool{}
	out := n.succs[:0]
	for _, p := range n.succs {
		if p.ID.Equal(n.self.ID) {
			break
		}
		if p.IsZero() || p.Addr == n.self.Addr || seen[p.Addr] {
			continue
		}
		seen[p.Addr] = true
		out = append(out, p)
		if len(out) == max(n.cfg.Replicas, 4) {
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
	n.succs = slices.DeleteFunc(n.succs, func(p transport.PeerInfo) bool { return p.Addr == dead.Addr })
	if len(n.succs) == 0 {
		n.succs = []transport.PeerInfo{n.self}
	}
	if n.pred.Addr == dead.Addr {
		n.pred = transport.PeerInfo{}
	}
	n.mu.Unlock()
	n.dropLink(dead.Addr)
}

// dropLink forgets a dead or moved peer as a long link.
func (n *Node) dropLink(addr transport.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links = slices.DeleteFunc(n.links, func(l transport.PeerInfo) bool { return l.Addr == addr })
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
	if len(n.links) < maxLinks {
		n.links = append(n.links, p)
		return
	}
	n.links[n.rng.IntN(len(n.links))] = p
}

// maxHops bounds the requests of one lookup walk, failed ones included.
const maxHops = 128

// lookup walks FindSucc hops toward k's owner and returns the owner and
// its predecessor. Its stack holds the starts, the first on top, and above
// them each hop that named the next. A hop that fails joins avoid, which
// every later request carries, and the walk asks the address below it
// again, which now skips the dead peer: the predecessor of a dead node
// answers with the successor after it. The walk fails once its stack runs
// out, a node names itself or maxHops requests are spent. hop sends one
// request; the node and the client each wrap their own bookkeeping around
// the call.
func lookup(ctx context.Context, k keys.Key, starts, avoid []transport.Addr, hops *obs.Histogram,
	hop func(ctx context.Context, to transport.Addr, req *transport.FindSuccReq) (*transport.FindSuccResp, error),
) (owner, pred transport.PeerInfo, err error) {
	stack := slices.Clone(starts)
	slices.Reverse(stack)
	for i := 0; len(stack) > 0; i++ {
		cur := stack[len(stack)-1]
		if i == maxHops {
			return owner, pred, fmt.Errorf("node: lookup for %s exceeded hop limit", k.Short())
		}
		resp, herr := hop(ctx, cur, &transport.FindSuccReq{Key: k, Avoid: avoid})
		switch {
		case herr != nil:
			err = herr
			avoid = append(avoid, cur)
			stack = stack[:len(stack)-1]
		case resp.Done:
			hops.Observe(int64(i + 1))
			return resp.Node, resp.Pred, nil
		case resp.Node.Addr == cur:
			return owner, pred, fmt.Errorf("node: lookup stuck at %s", cur)
		default:
			stack = append(stack, resp.Node.Addr)
		}
	}
	return owner, pred, err
}

// hop sends one request of this node's lookup walk: it learns the peer
// the answer names as a long link, and drops a hop found dead.
func (n *Node) hop(ctx context.Context, to transport.Addr, req *transport.FindSuccReq) (*transport.FindSuccResp, error) {
	resp, err := transport.Expect[*transport.FindSuccResp](n.call(ctx, to, req))
	if err != nil {
		if ctx.Err() == nil {
			n.dropLink(to)
		}
		return nil, err
	}
	n.learnLink(resp.Node)
	return resp, nil
}

// Lookup finds the owner of key k from this node's own routing state.
func (n *Node) Lookup(ctx context.Context, k keys.Key) (owner, pred transport.PeerInfo, err error) {
	if n.owns(k) {
		return n.Self(), n.Predecessor(), nil
	}
	return lookup(ctx, k, []transport.Addr{n.tr.Addr()}, nil, n.metrics.lookupHops, n.hop)
}
