package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/census"
)

// layerTable says where the traced operations' time went. Self times are
// taken along each operation's blocking path: a span's self time is its
// duration minus the part its children cover, and where children overlap
// (stream segments in flight, batch fan-out) the covered interval is
// shared among them in proportion to their durations, so the rows add up
// to OpSeconds exactly. Client-side spans are linked through the context;
// a transport call's time is then split into wire, node.serve and store
// with the measured ratios of its (caller, message, size) class, because
// spans on the two ends of a connection share a clock but not a context.
type layerTable struct {
	Ops       int64              `json:"ops"`
	OpSeconds float64            `json:"op_seconds"`
	Self      map[string]float64 `json:"self_seconds"`
	// Residual is operation time no layer accounts for: the harness's own
	// work between calls (generating and checksumming bytes).
	Residual float64 `json:"residual_seconds"`
}

func (l *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "  layer table: %d ops, %.3f s of operation time\n", l.Ops, l.OpSeconds)
	sum := l.Residual
	for _, name := range []string{"fs", "node.client", "transport", "node.serve", "store"} {
		fmt.Fprintf(w, "    %-12s %9.3f s  %5.1f %%\n", name, l.Self[name], pct(l.Self[name], l.OpSeconds))
		sum += l.Self[name]
	}
	fmt.Fprintf(w, "    %-12s %9.3f s  %5.1f %%\n", "residual", l.Residual, pct(l.Residual, l.OpSeconds))
	fmt.Fprintf(w, "    %-12s %9.3f s\n", "sum", sum)
}

// wireRow is one line of the call-minus-handler table.
type wireRow struct {
	Caller  string  `json:"caller"` // "client" or "node"
	Message string  `json:"message"`
	Size    string  `json:"size"` // "small" (≤ 16 KB) or "bulk"
	Calls   int64   `json:"calls"`
	CallS   float64 `json:"call_seconds"`
	ServeS  float64 `json:"serve_seconds"`
	WireS   float64 `json:"wire_seconds"`
	Bytes   int64   `json:"bytes"`
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is what the traced phase changed in the registries the layers
// already keep, summed over load clients and over ring members.
type counters struct {
	client obs.Snapshot // load clients' registries, after minus before
	nodes  obs.Snapshot // ring members' registries, after minus before
	// gauges are read once, after the phase.
	nodeGauges []obs.Snapshot

	cacheHits, cacheMisses uint64
	multiGetKeys           uint64
	batchKeys              uint64
	writtenBytes           int64 // user bytes written during the phase
	census                 *census.Cluster
}

// subSnapshot returns after − before for counters and histograms.
func subSnapshot(after, before obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]obs.HistSnapshot{}}
	for k, v := range after.Counters {
		out.Counters[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		d := obs.HistSnapshot{Bounds: h.Bounds, Counts: append([]uint64(nil), h.Counts...), Sum: h.Sum}
		if b, ok := before.Histograms[k]; ok && len(b.Counts) == len(d.Counts) {
			for i := range d.Counts {
				d.Counts[i] -= b.Counts[i]
			}
			d.Sum -= b.Sum
		}
		out.Histograms[k] = d
	}
	return out
}

// sumPrefix adds every counter whose name starts with prefix (a labelled
// family such as d2_rpc_client_errors_total{rpc="…"}).
func sumPrefix(s obs.Snapshot, prefix string) uint64 {
	var n uint64
	for k, v := range s.Counters {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// classKey groups RPC spans for the wire table.
type classKey struct {
	fromClient bool
	op         uint8
	bulk       bool
}

type classAgg struct {
	n     int64
	dur   int64
	bytes int64
}

// analysis is everything computed from one traced phase.
type analysis struct {
	table   layerTable
	wire    []wireRow
	metrics map[string]value
}

// interval is a child's extent inside its parent.
type interval struct{ lo, hi int64 }

// unionLen is the total length the intervals cover.
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, end int64
	first := true
	for _, x := range iv {
		if first || x.lo > end {
			total += x.hi - x.lo
			end, first = x.hi, false
		} else if x.hi > end {
			total += x.hi - end
			end = x.hi
		}
	}
	return total
}

// analyze turns the recorded spans and counter deltas into the layer
// table and the per-layer metrics. seconds is the traced phase's length.
func analyze(spans []span, c counters, seconds float64) analysis {
	// --- index children of client-side spans (linked through contexts) ---
	childCount := make([]uint32, len(spans)+2)
	for _, s := range spans {
		if s.end != 0 && s.parent != 0 && int(s.parent) <= len(spans) {
			childCount[s.parent+1]++
		}
	}
	for i := 1; i < len(childCount); i++ {
		childCount[i] += childCount[i-1]
	}
	offsets := childCount // offsets[id]..offsets[id+1] index into kids
	kids := make([]uint32, offsets[len(offsets)-1])
	fillAt := append([]uint32(nil), offsets...)
	for i, s := range spans {
		if s.end != 0 && s.parent != 0 && int(s.parent) <= len(spans) {
			kids[fillAt[s.parent]] = uint32(i + 1)
			fillAt[s.parent]++
		}
	}
	childrenOf := func(id uint32) []uint32 { return kids[offsets[id]:offsets[id+1]] }

	// --- aggregates over every span ---
	var (
		calls      = map[classKey]*classAgg{} // layCall by caller class
		serves     = map[classKey]*classAgg{} // layServe by caller class
		fwdByKind  = map[uint8]int64{}        // node calls made inside a client-originated handler, by handler kind
		storeDur   [numOps]int64
		storeN     [numOps]int64
		selfRaw    [numLayers]int64 // unweighted self time, client-side layers
		fsFiles    int64            // file-level fs calls
		fsReads    int64
		clientN    int64
		syncDur    int64
		syncPuts   int64
		putSpans   int64
		writeOps   int64
		lookupRPCs int64
		bgRPCs     int64
		fwdPutDur  int64
		clientPuts int64
		mgHandlers int64
		inflight   int64
	)
	agg := func(m map[classKey]*classAgg, k classKey, s span) {
		a := m[k]
		if a == nil {
			a = &classAgg{}
			m[k] = a
		}
		a.n++
		a.dur += s.end - s.start
		a.bytes += int64(s.bytes)
	}
	var iv []interval
	selfOf := func(id uint32) (self, covered, sumKids int64) {
		s := spans[id-1]
		iv = iv[:0]
		for _, k := range childrenOf(id) {
			ch := spans[k-1]
			lo, hi := max(ch.start, s.start), min(ch.end, s.end)
			if hi > lo {
				iv = append(iv, interval{lo, hi})
				sumKids += hi - lo
			}
		}
		covered = unionLen(iv)
		return (s.end - s.start) - covered, covered, sumKids
	}
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		id := uint32(i + 1)
		dur := s.end - s.start
		switch s.layer {
		case layOp:
			if s.op == opSave || s.op == opBulk || s.op == opWrite {
				writeOps++
			}
		case layFS:
			self, _, _ := selfOf(id)
			selfRaw[layFS] += self
			switch s.op {
			case fsReadFile, fsReadStream:
				fsFiles++
				fsReads++
			case fsWriteFile, fsWriteStream:
				fsFiles++
			case fsSync:
				syncDur += dur
				for _, k := range childrenOf(id) {
					if ch := spans[k-1]; ch.layer == layClient && ch.op == clPut {
						syncPuts++
					}
				}
			}
		case layClient:
			self, _, _ := selfOf(id)
			selfRaw[layClient] += self
			clientN++
			if s.op == clPut {
				putSpans++
			}
		case layCall:
			fromClient := s.node == 0
			agg(calls, classKey{fromClient, s.op, s.flags&flagBulk != 0}, s)
			if fromClient {
				inflight += dur
				if s.op == rpcFindSucc {
					lookupRPCs++
				}
				break
			}
			if s.parent == 0 {
				bgRPCs++
				break
			}
			if p := spans[s.parent-1]; p.layer == layServe && p.flags&flagFromClient != 0 {
				fwdByKind[p.op] += dur
				if s.op == rpcPut {
					fwdPutDur += dur
				}
			}
		case layServe:
			fromClient := s.flags&flagFromClient != 0
			agg(serves, classKey{fromClient, s.op, s.flags&flagBulk != 0}, s)
			if fromClient && s.op == rpcPut {
				clientPuts++
			}
			if s.op == rpcMultiGet {
				mgHandlers++
			}
		case layStore:
			storeDur[s.op] += dur
			storeN[s.op]++
		}
	}

	// --- per-kind totals the call split needs ---
	kindTotal := func(m map[classKey]*classAgg, fromClient bool, op uint8) (n, dur int64) {
		for _, bulk := range []bool{false, true} {
			if a := m[classKey{fromClient, op, bulk}]; a != nil {
				n += a.n
				dur += a.dur
			}
		}
		return
	}
	// storeOpFor maps a data-path RPC to the engine call its handler makes.
	storeOpFor := map[uint8]uint8{rpcPut: stPut, rpcGet: stGet, rpcMultiGet: stGetBatch, rpcFetchRange: stArcLimit}
	// storeShare is the engine's share of a handler kind's time for one
	// caller class: the engine call's total time split between callers by
	// handler count (a Put costs the engine the same whoever sent it).
	storeShare := func(fromClient bool, op uint8) float64 {
		st, ok := storeOpFor[op]
		if !ok {
			return 0
		}
		nMine, durMine := kindTotal(serves, fromClient, op)
		nOther, _ := kindTotal(serves, !fromClient, op)
		if nMine == 0 || durMine == 0 {
			return 0
		}
		mine := float64(storeDur[st]) * float64(nMine) / float64(nMine+nOther)
		return min(1, mine/float64(durMine))
	}
	handlerRatio := func(fromClient bool, op uint8, bulk bool) float64 {
		cl, sv := calls[classKey{fromClient, op, bulk}], serves[classKey{fromClient, op, bulk}]
		if cl == nil || sv == nil || cl.dur == 0 {
			return 0
		}
		return min(1, float64(sv.dur)/float64(cl.dur))
	}

	// --- blocking-path attribution from every root operation ---
	var (
		attr     [numLayers]float64
		callAttr = map[classKey]float64{}
		ops      int64
		opTime   int64
	)
	var walk func(id uint32, weight float64)
	walk = func(id uint32, weight float64) {
		s := spans[id-1]
		if s.layer == layCall {
			callAttr[classKey{true, s.op, s.flags&flagBulk != 0}] += weight * float64(s.end-s.start)
			return
		}
		self, covered, sumKids := selfOf(id)
		attr[s.layer] += weight * float64(self)
		if sumKids == 0 {
			return
		}
		share := weight * float64(covered) / float64(sumKids)
		for _, k := range childrenOf(id) {
			ch := spans[k-1]
			lo, hi := max(ch.start, s.start), min(ch.end, s.end)
			if hi <= lo {
				continue
			}
			// Scale the child to the part of it inside the parent.
			walk(k, share*float64(hi-lo)/float64(ch.end-ch.start))
		}
	}
	for i, s := range spans {
		if s.end != 0 && s.layer == layOp && s.parent == 0 {
			ops++
			opTime += s.end - s.start
			walk(uint32(i+1), 1)
		}
	}
	var wire, serve, store float64
	for k, a := range callAttr {
		inHandler := a * handlerRatio(true, k.op, k.bulk)
		wire += a - inHandler
		_, handlerDur := kindTotal(serves, true, k.op)
		fStore := storeShare(true, k.op)
		fFwd := min(1-fStore, ratio(float64(fwdByKind[k.op]), float64(handlerDur)))
		store += inHandler * fStore
		serve += inHandler * (1 - fStore - fFwd)
		// The forwarded part is itself a call: wire, the replica's
		// handler, and the replica's engine.
		fwd := inHandler * fFwd
		_, fwdCallDur := kindTotal(calls, false, k.op)
		_, replicaDur := kindTotal(serves, false, k.op)
		inReplica := fwd * min(1, ratio(float64(replicaDur), float64(fwdCallDur)))
		wire += fwd - inReplica
		rStore := storeShare(false, k.op)
		store += inReplica * rStore
		serve += inReplica * (1 - rStore)
	}
	ns := 1e-9
	table := layerTable{
		Ops:       ops,
		OpSeconds: float64(opTime) * ns,
		Self: map[string]float64{
			"fs":          attr[layFS] * ns,
			"node.client": attr[layClient] * ns,
			"transport":   wire * ns,
			"node.serve":  serve * ns,
			"store":       store * ns,
		},
		Residual: attr[layOp] * ns,
	}

	// --- the wire table ---
	var rows []wireRow
	for k, cl := range calls {
		row := wireRow{Caller: "node", Message: opNames[k.op], Size: "small", Calls: cl.n, CallS: float64(cl.dur) * ns, Bytes: cl.bytes}
		if k.fromClient {
			row.Caller = "client"
		}
		if k.bulk {
			row.Size = "bulk"
		}
		if sv := serves[k]; sv != nil {
			row.ServeS = float64(sv.dur) * ns
		}
		row.WireS = row.CallS - row.ServeS
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		return a.Size < b.Size
	})
	var smallWire, bulkWire float64
	var smallCalls, bulkBytes, allCalls int64
	for _, r := range rows {
		allCalls += r.Calls
		if r.Size == "small" {
			smallWire += r.WireS
			smallCalls += r.Calls
		} else {
			bulkWire += r.WireS
			bulkBytes += r.Bytes
		}
	}

	// --- per-layer metrics ---
	m := map[string]value{}
	set := func(name string, v float64, unit string, n int64) {
		m[name] = value{Value: v, Unit: unit, Samples: n}
	}
	us := 1e-3 // ns → µs
	cc, nc := c.client.Counters, c.nodes.Counters

	// fs
	blocksRead, cacheHits := float64(cc["d2_fs_blocks_read_total"]), float64(cc["d2_fs_cache_hits_total"])
	set("fs.self_us_per_file", ratio(float64(selfRaw[layFS])*us, float64(fsFiles)), "us", fsFiles)
	set("fs.block_gets_per_file", ratio(blocksRead, float64(fsReads)), "count", fsReads)
	set("fs.cache_hit_ratio", ratio(cacheHits, cacheHits+blocksRead), "ratio", int64(cacheHits+blocksRead))
	set("fs.block_puts_per_save", ratio(float64(putSpans), float64(writeOps)), "count", writeOps)
	set("fs.sync_us_per_block", ratio(float64(syncDur)*us, float64(syncPuts)), "us", syncPuts)
	streamMB := float64(cc["d2_stream_bytes_total"]) / 1e6
	set("fs.stream_stalls_per_mb", ratio(float64(cc["d2_stream_stalls_total"]), streamMB), "1/MB", int64(cc["d2_stream_stalls_total"]))
	win := c.client.Histograms["d2_stream_window"]
	set("fs.stream_window_mean", win.Mean(), "segments", int64(win.Count()))

	// node.client
	set("client.self_us_per_op", ratio(float64(selfRaw[layClient])*us, float64(clientN)), "us", clientN)
	set("client.rpcs_per_op", ratio(float64(cc["d2_client_rpcs_total"]), float64(clientN)), "count", clientN)
	set("client.lookup_rpcs_per_op", ratio(float64(lookupRPCs), float64(clientN)), "count", clientN)
	fan := c.client.Histograms["d2_client_getmany_fanout"]
	set("client.fanout_mean", fan.Mean(), "count", int64(fan.Count()))
	retries := cc["d2_client_notfound_retries_total"] + cc["d2_client_segment_retries_total"] + cc["d2_tcp_retries_total"]
	set("client.retries", float64(retries), "count", clientN)

	// lookupcache (lookup_ns comes from its direct driver)
	set("lookupcache.hit_ratio", ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)), "ratio", int64(c.cacheHits+c.cacheMisses))

	// transport
	set("transport.small_wire_us", ratio(smallWire*1e6, float64(smallCalls)), "us", smallCalls)
	set("transport.bulk_wire_us_per_mb", ratio(bulkWire*1e6, float64(bulkBytes)/1e6), "us/MB", bulkBytes)
	set("transport.rpcs", float64(allCalls), "count", allCalls)
	wireOut := float64(cc[`d2_tcp_wire_bytes_total{dir="written"}`] + nc[`d2_tcp_wire_bytes_total{dir="written"}`])
	set("transport.bytes_per_rpc", ratio(wireOut, float64(allCalls)), "B", allCalls)
	set("transport.inflight_mean", ratio(float64(inflight)*ns, seconds), "count", allCalls)
	set("transport.dials", float64(cc["d2_tcp_dials_total"]+nc["d2_tcp_dials_total"]), "count", allCalls)
	set("transport.errors", float64(sumPrefix(c.client, "d2_rpc_client_errors_total")+sumPrefix(c.nodes, "d2_rpc_client_errors_total")), "count", allCalls)

	// node.serve: self time of the data-path handlers — handler time less
	// the engine calls and outbound calls made inside them.
	var dataN, dataDur, dataStore, dataFwd int64
	for _, op := range []uint8{rpcPut, rpcGet, rpcMultiGet, rpcFetchRange, rpcRemove, rpcFindSucc} {
		for _, fromClient := range []bool{false, true} {
			n, d := kindTotal(serves, fromClient, op)
			dataN += n
			dataDur += d
		}
		if st, ok := storeOpFor[op]; ok {
			dataStore += storeDur[st]
		}
		dataFwd += fwdByKind[op]
	}
	set("serve.self_us_per_rpc", ratio(float64(max(0, dataDur-dataStore-dataFwd))*us, float64(dataN)), "us", dataN)
	set("serve.multiget_keys_mean", ratio(float64(c.multiGetKeys), float64(mgHandlers)), "count", mgHandlers)
	set("serve.replica_forward_us_per_put", ratio(float64(fwdPutDur)*us, float64(clientPuts)), "us", clientPuts)
	set("serve.background_rpcs_per_s", ratio(float64(bgRPCs), seconds), "1/s", bgRPCs)

	// store
	var allStore, bgStore, storeOps int64
	for op := stPut; op <= stFlush; op++ {
		allStore += storeDur[op]
		storeOps += storeN[op]
	}
	for _, op := range []uint8{stArc, stArcBytes, stArcVisit, stSweepExpired, stStalePointers, stKeys} {
		bgStore += storeDur[op]
	}
	set("store.get_us", ratio(float64(storeDur[stGet])*us, float64(storeN[stGet])), "us", storeN[stGet])
	set("store.getbatch_us_per_key", ratio(float64(storeDur[stGetBatch])*us, float64(c.batchKeys)), "us", int64(c.batchKeys))
	set("store.put_us", ratio(float64(storeDur[stPut])*us, float64(storeN[stPut])), "us", storeN[stPut])
	set("store.ops", float64(storeOps), "count", storeOps)
	set("store.background_share", ratio(float64(bgStore), float64(allStore)), "ratio", storeOps)

	// store.disk, from the d2_store_* series the harness handed to disk.Open
	writtenMB := float64(c.writtenBytes) / 1e6
	fsyncs := float64(nc["d2_store_wal_fsyncs_total"])
	set("disk.fsyncs_per_mb", ratio(fsyncs, writtenMB), "1/MB", int64(fsyncs))
	set("disk.group_commit_mean", ratio(float64(nc["d2_store_wal_appends_total"]), fsyncs), "count", int64(fsyncs))
	fh := c.nodes.Histograms["d2_store_wal_fsync_ns"]
	set("disk.fsync_p50_ms", fh.Quantile(0.5)/1e6, "ms", int64(fh.Count()))
	set("disk.wal_bytes_per_user_byte", ratio(float64(nc["d2_store_wal_bytes_total"]), float64(c.writtenBytes)), "ratio", c.writtenBytes)
	set("disk.checkpoints", float64(nc["d2_store_checkpoints_total"]), "count", 1)
	set("disk.wal_stalls", float64(nc["d2_store_wal_stalls_total"]), "count", 1)
	set("disk.errors", float64(nc["d2_store_wal_errors_total"]+nc["d2_store_checkpoint_errors_total"]+nc["d2_store_read_errors_total"]), "count", 1)

	// obs / placement: what the watchers cost and the layout the run saw
	var sweepNs float64
	for _, g := range c.nodeGauges {
		sweepNs += float64(g.Gauges["d2_census_sweep_nanos"])
	}
	set("obs.census_sweep_ms", ratio(sweepNs/1e6, float64(len(c.nodeGauges))), "ms", int64(len(c.nodeGauges)))
	if c.census != nil {
		set("placement.frag_ratio", c.census.FragRatio, "ratio", c.census.TotalFiles)
		set("placement.imbalance", c.census.Imbalance, "ratio", int64(len(c.census.Nodes)))
	} else {
		set("placement.frag_ratio", 0, "ratio", 0)
		set("placement.imbalance", 0, "ratio", 0)
	}

	// the measurement itself
	set("trace.residual_pct", pct(table.Residual, table.OpSeconds), "%", ops)
	for name, key := range map[string]string{
		"trace.fs_pct": "fs", "trace.client_pct": "node.client", "trace.transport_pct": "transport",
		"trace.serve_pct": "node.serve", "trace.store_pct": "store",
	} {
		set(name, pct(table.Self[key], table.OpSeconds), "%", ops)
	}
	return analysis{table: table, wire: rows, metrics: m}
}
