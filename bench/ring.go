package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	d2 "github.com/defragdht/d2"
	"github.com/defragdht/d2/internal/fs"
	"github.com/defragdht/d2/internal/node"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/census"
	"github.com/defragdht/d2/internal/obs/history"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/store/disk"
	"github.com/defragdht/d2/internal/transport"
)

// The ring under test is the same for every workload: five nodes on
// loopback TCP, r = 3, the disk engine in fresh directories with fsync
// "always", the balancer off, and every other option at its default, so
// stabilise, repair, the history sampler and the census sweeper run at
// production cadence and their cost is in the number.
const (
	ringNodes    = 5
	ringReplicas = 3
)

// ring is one booted cluster. With rec == nil it is built through the
// public facade only (d2.StartNode / d2.ConnectTCP); with a recorder the
// harness wires the same parts itself so the four wrappers can sit
// between them.
type ring struct {
	rec     *recorder
	dir     string
	members []*member

	mu    sync.RWMutex
	addrs map[transport.Addr]bool
}

// member is one ring node, in exactly one of its two forms.
type member struct {
	idx  int
	addr string
	dir  string

	pub *d2.Node // untraced

	// traced
	inner  *node.Node
	tr     *tracedTransport
	st     *tracedStore
	store  *disk.Store
	engine *history.Engine
	reg    *obs.Registry
	// openDur is how long disk.Open took (recovery time after a restart).
	openDur time.Duration
}

func (r *ring) isMember(a transport.Addr) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.addrs[a]
}

// bootRing starts the five nodes under dir and waits until a ring walk
// sees all of them linked. Node i has Seed i+1, so ring positions — and
// with the seeded volume keys, block placement — repeat run to run.
func bootRing(ctx context.Context, dir string, rec *recorder) (*ring, error) {
	r := &ring{rec: rec, dir: dir, addrs: make(map[transport.Addr]bool)}
	for i := 0; i < ringNodes; i++ {
		m := &member{idx: i, dir: filepath.Join(dir, fmt.Sprintf("node-%d", i))}
		if err := os.MkdirAll(m.dir, 0o755); err != nil {
			r.close()
			return nil, err
		}
		seed := ""
		if i > 0 {
			seed = r.members[0].addr
		}
		if err := r.start(ctx, m, "127.0.0.1:0", seed); err != nil {
			r.close()
			return nil, fmt.Errorf("bench: boot node %d: %w", i, err)
		}
		r.members = append(r.members, m)
	}
	if err := r.converge(ctx); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// start brings one member up on bind, joining via seed when non-empty.
func (r *ring) start(ctx context.Context, m *member, bind, seed string) error {
	if r.rec == nil {
		nd, err := d2.StartNode(ctx, bind, seed, d2.NodeOptions{
			Replicas: ringReplicas,
			Seed:     uint64(m.idx + 1),
			DataDir:  m.dir,
			Fsync:    "always",
		})
		if err != nil {
			return err
		}
		m.pub, m.addr = nd, nd.Addr()
	} else if err := r.startTraced(ctx, m, bind, seed); err != nil {
		return err
	}
	r.mu.Lock()
	r.addrs[transport.Addr(m.addr)] = true
	r.mu.Unlock()
	return nil
}

// startTraced mirrors d2.StartNode step for step — one registry shared by
// transport, engine and node, the event log, the health engine and its
// flight-recorder triggers — with the transport and the engine wrapped.
func (r *ring) startTraced(ctx context.Context, m *member, bind, seed string) error {
	tcp, err := transport.ListenTCP(bind)
	if err != nil {
		return err
	}
	reg := obs.New()
	events := obs.NewEventLog(1024)
	events.CountDrops(reg.Counter("d2_events_dropped_total"))
	tcp.UseMetrics(transport.NewRPCMetrics(reg))
	tracer := tracing.New(tracing.Config{Node: string(tcp.Addr())})

	policy, err := disk.ParseFsyncPolicy("always")
	if err != nil {
		_ = tcp.Close()
		return err
	}
	t0 := time.Now()
	ds, err := disk.Open(m.dir, disk.Options{Fsync: policy, Metrics: reg})
	if err != nil {
		_ = tcp.Close()
		return err
	}
	m.openDur = time.Since(t0)

	engine := history.New(history.Config{
		Registry: reg,
		Events:   events,
		Sink:     tracer.Sink(),
		Node:     string(tcp.Addr()),
	})
	events.Notify(func(ev obs.Event) {
		switch ev.Name {
		case "slow.request":
			engine.Trigger("slow_request", ev.Fields, ev.Trace)
		case "ring.drop_succ":
			engine.Trigger("peer_dead", ev.Fields, ev.Trace)
		}
	})

	id := uint8(m.idx + 1)
	tr := &tracedTransport{inner: tcp, rec: r.rec, node: id, isMember: r.isMember}
	st := &tracedStore{inner: ds, rec: r.rec, node: id}
	nd := node.Start(tr, node.Config{
		Replicas: ringReplicas,
		Seed:     uint64(m.idx + 1),
		Metrics:  reg,
		Events:   events,
		Tracer:   tracer,
		Health:   engine,
		Store:    st,
	})
	engine.Start()
	if seed != "" {
		if err := nd.Join(ctx, transport.Addr(seed)); err != nil {
			engine.Close()
			_ = nd.Close()
			_ = ds.Close()
			return fmt.Errorf("join %s: %w", seed, err)
		}
	}
	m.inner, m.tr, m.st, m.store, m.engine, m.reg = nd, tr, st, ds, engine, reg
	m.addr = string(tcp.Addr())
	return nil
}

// stop closes one member, keeping its data directory (the same order as
// d2.Node.Close: health engine, node, then the engine's files).
func (m *member) stop() error {
	if m.pub != nil {
		err := m.pub.Close()
		m.pub = nil
		return err
	}
	if m.inner == nil {
		return nil
	}
	m.engine.Close()
	err := m.inner.Close()
	if serr := m.store.Close(); err == nil {
		err = serr
	}
	m.inner = nil
	return err
}

// restart closes member m and starts it again on the same address and
// data directory, as an operator restarting a durable node would. It
// returns how long the start (including disk recovery) took.
func (r *ring) restart(ctx context.Context, m *member) (time.Duration, error) {
	if err := m.stop(); err != nil {
		return 0, fmt.Errorf("bench: stop node %d: %w", m.idx, err)
	}
	seed := r.members[(m.idx+1)%len(r.members)].addr
	t0 := time.Now()
	// The listener's port may linger for a moment after Close.
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if err = r.start(ctx, m, m.addr, seed); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		return 0, fmt.Errorf("bench: restart node %d: %w", m.idx, err)
	}
	took := time.Since(t0)
	return took, r.converge(ctx)
}

// converge waits until a ring walk sees every member and the members
// agree with each other: walking successor by successor, each node's
// predecessor is the node before it and its first r−1 successors are the
// nodes after it. Before that, a write's replica group is whatever a
// half-built successor list says, copies land on nodes that will not be
// asked for them, and the layout differs run to run.
func (r *ring) converge(ctx context.Context) error {
	s, err := r.connect()
	if err != nil {
		return err
	}
	defer s.close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		members, err := s.walkRing(ctx)
		if err == nil && consistent(members, len(r.members)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: ring did not converge (saw %d members, last error %v)", len(members), err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// consistent reports whether a ring walk (members in successor order)
// shows want nodes whose neighbour views all agree.
func consistent(members []node.RingMember, want int) bool {
	n := len(members)
	if n != want {
		return false
	}
	for i, m := range members {
		if len(m.Succs) < ringReplicas-1 || m.Pred.Addr != members[(i+n-1)%n].Self.Addr {
			return false
		}
		for j := 0; j < ringReplicas-1; j++ {
			if m.Succs[j].Addr != members[(i+1+j)%n].Self.Addr {
				return false
			}
		}
	}
	return true
}

// seeds returns the addresses clients bootstrap from.
func (r *ring) seeds() []string {
	out := make([]string, 0, 3)
	for _, m := range r.members[:3] {
		out = append(out, m.addr)
	}
	return out
}

// diskBytes sums the file sizes under every member's data directory.
// With fsync "always" every acknowledged write is already in those files,
// so no flush is needed first.
func (r *ring) diskBytes() (int64, error) {
	var total int64
	err := filepath.Walk(r.dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			// Checkpoints delete superseded files while we walk.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// close stops every member and removes the data directories.
func (r *ring) close() error {
	var first error
	for _, m := range r.members {
		if err := m.stop(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(r.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// session is one load client: its own transport endpoint, lookup cache
// and metrics, as one user of the system has.
type session struct {
	pub *d2.Client // untraced

	// traced
	cl  *node.Client
	svc *tracedSvc
}

// connect opens a client the way the ring was built: d2.ConnectTCP, or
// its hand-wired mirror with the transport and block service wrapped.
func (r *ring) connect() (*session, error) {
	if r.rec == nil {
		c, err := d2.ConnectTCP(r.seeds(), ringReplicas)
		if err != nil {
			return nil, err
		}
		return &session{pub: c}, nil
	}
	tcp, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	seeds := make([]transport.Addr, 0, 3)
	for _, s := range r.seeds() {
		seeds = append(seeds, transport.Addr(s))
	}
	reg := obs.New()
	tcp.UseMetrics(transport.NewRPCMetrics(reg))
	tr := &tracedTransport{inner: tcp, rec: r.rec, node: 0, isMember: r.isMember}
	cl, err := node.NewClient(tr, node.ClientConfig{
		Seeds:    seeds,
		Replicas: ringReplicas,
		Metrics:  reg,
		Tracer:   tracing.New(tracing.Config{Node: "client@" + string(tcp.Addr())}),
		Events:   obs.NewEventLog(256),
	})
	if err != nil {
		_ = tcp.Close()
		return nil, err
	}
	return &session{cl: cl, svc: &tracedSvc{inner: cl, rec: r.rec}}, nil
}

func (s *session) close() {
	if s.pub != nil {
		_ = s.pub.Close()
		return
	}
	_ = s.cl.Close()
}

func (s *session) create(ctx context.Context, name string, priv ed25519.PrivateKey) (*fs.Volume, error) {
	if s.pub != nil {
		return s.pub.CreateVolume(ctx, name, priv, d2.VolumeOptions{})
	}
	return fs.Create(ctx, s.svc, name, priv, fs.Options{Metrics: s.cl.Metrics()})
}

// open attaches to a volume; priv is nil for the read-only handles
// readers use.
func (s *session) open(ctx context.Context, name string, pub ed25519.PublicKey, priv ed25519.PrivateKey) (*fs.Volume, error) {
	if s.pub != nil {
		return s.pub.OpenVolume(ctx, name, pub, priv, d2.VolumeOptions{})
	}
	return fs.Open(ctx, s.svc, name, pub, priv, fs.Options{Metrics: s.cl.Metrics()})
}

func (s *session) walkRing(ctx context.Context) ([]node.RingMember, error) {
	if s.pub != nil {
		return s.pub.WalkRing(ctx)
	}
	return s.cl.WalkRing(ctx)
}

func (s *session) clusterStats(ctx context.Context) ([]node.NodeStats, error) {
	if s.pub != nil {
		return s.pub.ClusterStats(ctx)
	}
	return s.cl.ClusterStats(ctx)
}

func (s *session) clusterCensus(ctx context.Context) (*census.Cluster, error) {
	if s.pub != nil {
		_, c, err := s.pub.ClusterCensus(ctx)
		return c, err
	}
	_, c, err := s.cl.ClusterCensus(ctx)
	return c, err
}

func (s *session) cacheStats() (hits, misses uint64) {
	if s.pub != nil {
		return s.pub.CacheStats()
	}
	return s.cl.Stats()
}

func (s *session) snapshot() obs.Snapshot {
	if s.pub != nil {
		return s.pub.MetricsSnapshot()
	}
	return s.cl.Metrics().Snapshot()
}
