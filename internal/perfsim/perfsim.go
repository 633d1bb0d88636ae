package perfsim

import (
	"math/rand/v2"
	"sort"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/lookupcache"
	"github.com/defragdht/d2/internal/netmodel"
	"github.com/defragdht/d2/internal/placement"
	"github.com/defragdht/d2/internal/sim"
	"github.com/defragdht/d2/internal/trace"
)

// Config parameterizes one performance run (§9.1 defaults).
type Config struct {
	// Nodes is the DHT size (200, 500, or 1000 in the paper).
	Nodes int
	// Replicas is r (4 in the performance experiments).
	Replicas int
	// AccessBPS is each node's access-link capacity (1500 or 384 kbps).
	AccessBPS int64
	// Concurrency caps a client's simultaneous transfers (15, §9.1).
	Concurrency int
	// CacheTTL is the lookup-cache entry lifetime (75 min, §5).
	CacheTTL time.Duration
	// Think is the access-group think-time threshold (1 s, §9.1).
	Think time.Duration
	// WindowLen is the measured window length (15 min, §9.1).
	WindowLen time.Duration
	// NumWindows is how many windows are measured (8, §9.1).
	NumWindows int
	// Parallel selects the para extreme; false is seq (§9.1).
	Parallel bool
	// Seed drives ring, gateway, and replica-choice randomness.
	Seed uint64
}

func (c *Config) applyDefaults() {
	if c.Replicas == 0 {
		c.Replicas = 4
	}
	if c.AccessBPS == 0 {
		c.AccessBPS = 1_500_000
	}
	if c.Concurrency == 0 {
		c.Concurrency = 15
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = lookupcache.DefaultTTL
	}
	if c.Think == 0 {
		c.Think = time.Second
	}
	if c.WindowLen == 0 {
		c.WindowLen = 15 * time.Minute
	}
	if c.NumWindows == 0 {
		c.NumWindows = 8
	}
}

// System describes one of the compared designs.
type System struct {
	// Name labels output rows.
	Name string
	// Keyer maps blocks to keys (the strategy under test).
	Keyer placement.Keyer
	// Balanced lays node IDs out as equal-byte partitions of the block
	// keys — the converged state of D2's active balancer. Unbalanced
	// systems use uniformly random IDs (consistent hashing).
	Balanced bool
}

// Result aggregates one run's measurements.
type Result struct {
	System string
	Nodes  int
	// Lookups and LookupMsgs count DHT lookups and their routing
	// messages during measured windows (Fig. 9 reports msgs per node).
	Lookups    int64
	LookupMsgs int64
	// CacheHits/CacheMisses are totals over measured windows.
	CacheHits   uint64
	CacheMisses uint64
	// PerUserMiss maps user → [hits, misses] (Fig. 13 averages per-user
	// miss rates).
	PerUserMiss map[int32][2]uint64
	// Groups maps access-group index (stable across systems) to the
	// group's completion latency.
	Groups map[int]time.Duration
	// GroupUser maps group index to its user, for per-user speedups.
	GroupUser map[int]int32
}

// MsgsPerNode returns lookup messages per node (Fig. 9's y-axis).
func (r *Result) MsgsPerNode() float64 {
	if r.Nodes == 0 {
		return 0
	}
	return float64(r.LookupMsgs) / float64(r.Nodes)
}

// MeanUserMissRate returns the mean per-user cache miss rate (Fig. 13).
func (r *Result) MeanUserMissRate() float64 {
	var sum float64
	var n int
	for _, hm := range r.PerUserMiss {
		total := hm[0] + hm[1]
		if total == 0 {
			continue
		}
		sum += float64(hm[1]) / float64(total)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runner is the per-run state.
type runner struct {
	cfg     Config
	sys     System
	tr      *trace.Trace
	topo    *netmodel.Topology
	eng     *sim.Engine
	rng     *rand.Rand
	rngWin  *rand.Rand
	rngGate *rand.Rand
	rngRep  *rand.Rand
	router  *router
	tcp     *netmodel.TCP
	links   []*sim.Link // per node rank: upload link
	reps    []int       // replica-rank scratch for fetchBlock

	gateway map[int32]int                     // user → node rank
	caches  map[int32]*lookupcache.Cache[int] // user → lookup cache
	sizes   map[string]int64                  // live file sizes
	res     *Result
}

// Run executes one performance run of the given system over the trace.
func Run(cfg Config, sys System, tr *trace.Trace, topo *netmodel.Topology) *Result {
	cfg.applyDefaults()
	r := &runner{
		cfg:  cfg,
		sys:  sys,
		tr:   tr,
		topo: topo,
		eng:  &sim.Engine{},
		// Purpose-split RNGs: windows and gateways must be identical
		// across compared systems regardless of how many draws ring
		// construction consumes.
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x52494e47)), // ring
		rngWin:  rand.New(rand.NewPCG(cfg.Seed, 0x57494e44)), // windows
		rngGate: rand.New(rand.NewPCG(cfg.Seed, 0x47415445)), // gateways
		rngRep:  rand.New(rand.NewPCG(cfg.Seed, 0x5245504c)), // replicas
		tcp:     netmodel.NewTCP(),
		gateway: make(map[int32]int),
		caches:  make(map[int32]*lookupcache.Cache[int]),
		sizes:   make(map[string]int64),
		res: &Result{
			System:      sys.Name,
			Nodes:       cfg.Nodes,
			PerUserMiss: make(map[int32][2]uint64),
			Groups:      make(map[int]time.Duration),
			GroupUser:   make(map[int]int32),
		},
	}
	r.buildRing()
	r.links = make([]*sim.Link, cfg.Nodes)
	for i := range r.links {
		r.links[i] = sim.NewLink(r.eng, cfg.AccessBPS)
	}
	for u := int32(0); u < int32(tr.Users); u++ {
		r.gateway[u] = r.rngGate.IntN(cfg.Nodes)
		r.caches[u] = lookupcache.New[int](cfg.CacheTTL)
	}
	r.replay()
	return r.res
}

// buildRing lays out node IDs: byte-balanced over the initial file system
// for Balanced systems, random otherwise.
func (r *runner) buildRing() {
	var ids []keys.Key
	if r.sys.Balanced {
		type kb struct {
			k keys.Key
			s int64
		}
		var all []kb
		for _, f := range r.tr.Initial {
			for b := int64(0); b <= f.NumBlocks(); b++ {
				all = append(all, kb{r.sys.Keyer.BlockKey(f.Path, uint64(b)), trace.BlockBytes(f.Size, b)})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].k.Less(all[j].k) })
		ks := make([]keys.Key, len(all))
		ss := make([]int64, len(all))
		for i, x := range all {
			ks[i] = x.k
			ss[i] = x.s
		}
		ids = balancedRing(ks, ss, r.cfg.Nodes)
	} else {
		ids = randomRing(r.cfg.Nodes, r.rng)
	}
	r.router = newRouter(ids, r.rng)
}

// windowStarts picks the measured windows: evenly spread over the trace's
// working days, always inside 9 AM–6 PM (§9.1).
func (r *runner) windowStarts() []time.Duration {
	day := 24 * time.Hour
	days := int(r.tr.Duration / day)
	if days == 0 {
		days = 1
	}
	var out []time.Duration
	for i := 0; i < r.cfg.NumWindows; i++ {
		d := i % days
		hour := 9*time.Hour + time.Duration(r.rngWin.Float64()*float64(9*time.Hour-r.cfg.WindowLen))
		out = append(out, time.Duration(d)*day+hour)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// replay walks the trace: events outside measured windows only maintain
// the file catalog and warm the lookup caches; access groups starting
// inside a window are fully simulated.
func (r *runner) replay() {
	groups := trace.AccessGroups(r.tr, r.cfg.Think)
	groupOf := make(map[int]int, len(r.tr.Events))
	for gi := range groups {
		for _, ei := range groups[gi].Events {
			groupOf[ei] = gi
		}
	}
	windows := r.windowStarts()
	inWindow := func(at time.Duration) bool {
		i := sort.Search(len(windows), func(i int) bool { return windows[i] > at })
		return i > 0 && at < windows[i-1]+r.cfg.WindowLen
	}

	measured := make(map[int]bool)
	userBusyUntil := make(map[int32]time.Duration)

	for ei := range r.tr.Events {
		e := &r.tr.Events[ei]
		switch e.Op {
		case trace.OpCreate:
			r.sizes[e.Path] = e.Length
		case trace.OpWrite:
			if end := e.Offset + e.Length; end > r.sizes[e.Path] {
				r.sizes[e.Path] = end
			}
		case trace.OpDelete:
			delete(r.sizes, e.Path)
		case trace.OpRead:
			if _, ok := r.sizes[e.Path]; !ok {
				continue
			}
			gi := groupOf[ei]
			if measured[gi] {
				continue // scheduled with its group
			}
			if inWindow(groups[gi].Start) {
				measured[gi] = true
				r.scheduleGroup(gi, &groups[gi], userBusyUntil)
			} else {
				r.warmRead(e)
			}
		}
	}
	r.eng.Run(r.tr.Duration + time.Hour)
}

// warmRead updates the user's lookup cache as the paper's warm-up
// simulation does, without timing anything.
func (r *runner) warmRead(e *trace.Event) {
	r.forEachBlock(e, func(k keys.Key) {
		cache := r.caches[e.User]
		if _, ok := cache.Lookup(k, e.At); !ok {
			owner := r.router.SuccessorIndex(k)
			lo, hi := r.router.Range(owner)
			cache.Insert(lo, hi, owner, e.At)
		}
	})
}

// forEachBlock enumerates the block keys a read touches (inode + data).
func (r *runner) forEachBlock(e *trace.Event, fn func(keys.Key)) {
	fn(r.sys.Keyer.BlockKey(e.Path, 0))
	first, count := e.BlockSpan()
	size := r.sizes[e.Path]
	for b := first; b < first+count; b++ {
		if (b-1)*trace.BlockSize >= size {
			break
		}
		fn(r.sys.Keyer.BlockKey(e.Path, uint64(b)))
	}
}

// blockFetch is one block retrieval within a measured group.
type blockFetch struct {
	key  keys.Key
	size int64
}

// scheduleGroup simulates one access group: sequentially in seq mode, with
// bounded parallelism in para mode. Latency is measured from the group's
// (possibly delayed) start to the last block's arrival.
func (r *runner) scheduleGroup(gi int, g *trace.Task, busyUntil map[int32]time.Duration) {
	// Collect the group's unique blocks (the 30 s buffer cache collapses
	// repeat reads within a group, §3).
	var fetches []blockFetch
	seen := make(map[keys.Key]bool)
	for _, ei := range g.Events {
		e := &r.tr.Events[ei]
		if e.Op != trace.OpRead {
			continue
		}
		size := r.sizes[e.Path]
		r.forEachBlock(e, func(k keys.Key) {
			if seen[k] {
				return
			}
			seen[k] = true
			n := int64(trace.BlockSize)
			if k.Equal(r.sys.Keyer.BlockKey(e.Path, 0)) {
				n = trace.InodeBytes
			} else if size < trace.BlockSize {
				n = size
			}
			fetches = append(fetches, blockFetch{key: k, size: n})
		})
	}
	if len(fetches) == 0 {
		return
	}
	start := g.Start
	if bu := busyUntil[g.User]; bu > start {
		start = bu
	}
	user := g.User
	gidx := gi
	done := func(end time.Duration) {
		r.res.Groups[gidx] = end - start
		r.res.GroupUser[gidx] = user
		busyUntil[user] = end
	}
	// Reserve the user's timeline pessimistically; done() sets the real
	// end when the last block lands.
	busyUntil[user] = start + r.cfg.WindowLen

	if r.cfg.Parallel {
		r.eng.At(start, func() { r.runParallel(user, fetches, done) })
	} else {
		r.eng.At(start, func() { r.runSequential(user, fetches, 0, done) })
	}
}

// runSequential fetches blocks one at a time.
func (r *runner) runSequential(user int32, fetches []blockFetch, i int, done func(time.Duration)) {
	if i == len(fetches) {
		done(r.eng.Now())
		return
	}
	r.fetchBlock(user, fetches[i], func() {
		r.runSequential(user, fetches, i+1, done)
	})
}

// runParallel issues all blocks with the client concurrency cap.
func (r *runner) runParallel(user int32, fetches []blockFetch, done func(time.Duration)) {
	next := 0
	inflight := 0
	remaining := len(fetches)
	var pump func()
	pump = func() {
		for inflight < r.cfg.Concurrency && next < len(fetches) {
			f := fetches[next]
			next++
			inflight++
			r.fetchBlock(user, f, func() {
				inflight--
				remaining--
				if remaining == 0 {
					done(r.eng.Now())
					return
				}
				pump()
			})
		}
	}
	pump()
}

// fetchBlock performs lookup (cached or routed) then the block transfer.
func (r *runner) fetchBlock(user int32, f blockFetch, done func()) {
	client := r.gateway[user]
	cache := r.caches[user]
	now := r.eng.Now()

	owner, hit := cache.Lookup(f.key, now)
	hm := r.res.PerUserMiss[user]
	var lookupDelay time.Duration
	if hit {
		hm[0]++
	} else {
		hm[1]++
		path := r.router.lookup(client, f.key)
		r.res.Lookups++
		r.res.LookupMsgs += int64(len(path))
		prev := client
		for _, hop := range path {
			lookupDelay += r.topo.OneWay(prev, hop)
			prev = hop
		}
		owner = r.router.SuccessorIndex(f.key)
		lookupDelay += r.topo.OneWay(owner, client) // result returns directly
		lo, hi := r.router.Range(owner)
		cache.Insert(lo, hi, owner, now)
	}
	r.res.PerUserMiss[user] = hm

	// Pick a random replica (§4.3: D2 selects replicas randomly) among
	// the r successors of the owner.
	r.reps = r.router.AppendReplicas(r.reps[:0], f.key, r.cfg.Replicas)
	server := r.reps[r.rngRep.IntN(len(r.reps))]

	r.eng.After(lookupDelay+r.topo.OneWay(client, server), func() {
		// Request arrived at the server: window rounds + upload queueing.
		arrive := r.eng.Now()
		rounds := r.tcp.TransferRounds(server, client, f.size, arrive)
		windowed := arrive + time.Duration(rounds)*r.topo.RTT(server, client)
		linkDone := r.links[server].Enqueue(f.size, nil)
		end := windowed
		if linkDone > end {
			end = linkDone
		}
		end += r.topo.OneWay(server, client)
		r.eng.At(end, done)
	})
}
