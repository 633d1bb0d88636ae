package node

import (
	"github.com/defragdht/d2/internal/obs"
)

// nodeMetrics instruments a node's DHT behavior against its obs.Registry:
// lookup routing cost, balance activity (§6), pointer lifecycle, replica
// repair, and churn handling. Every node owns a registry (a fresh one
// unless Config.Metrics shares one), so the fields are never nil.
type nodeMetrics struct {
	lookupHops *obs.Histogram // hops per iterative lookup issued by this node

	balanceProbes *obs.Counter // §6 probes run
	balanceMoves  *obs.Counter // §6 leave/rejoin moves executed
	splitHandouts *obs.Counter // split medians handed to probers

	ptrInstalls  *obs.Counter // block pointers installed locally
	ptrRedirects *obs.Counter // reads answered with a redirect
	ptrResolved  *obs.Counter // pointers replaced by data (stabilization)

	multiPutBlocks *obs.Histogram // blocks per MultiPut served (batch size)
	forwardErrors  *obs.Counter   // replica forwards (put, multi_put, remove) that failed
	repairPushes   *obs.Counter   // blocks pushed to successors by repair
	replicaDeficit *obs.Gauge     // replica slots the last repair round left unfilled
	handoffs       *obs.Counter   // blocks handed to their primary and dropped
	rejoins        *obs.Counter   // ring re-entries after successor collapse
	succDrops      *obs.Counter   // successors dropped as dead or moved
	removals       *obs.Counter   // delayed removals scheduled (§3)
	expired        *obs.Counter   // blocks dropped by TTL sweep
}

// newNodeMetrics registers the node metrics and the store gauges on reg.
func newNodeMetrics(reg *obs.Registry, n *Node) *nodeMetrics {
	reg.GaugeFunc("d2_node_store_bytes", n.StoredBytes)
	reg.GaugeFunc("d2_node_store_blocks", func() int64 { return int64(n.st.Len()) })
	reg.GaugeFunc("d2_node_resp_bytes", n.RespBytes)
	return &nodeMetrics{
		lookupHops:     reg.Histogram("d2_node_lookup_hops", obs.CountBuckets),
		balanceProbes:  reg.Counter("d2_node_balance_probes_total"),
		balanceMoves:   reg.Counter("d2_node_balance_moves_total"),
		splitHandouts:  reg.Counter("d2_node_split_handouts_total"),
		ptrInstalls:    reg.Counter("d2_node_ptr_installs_total"),
		ptrRedirects:   reg.Counter("d2_node_ptr_redirects_total"),
		ptrResolved:    reg.Counter("d2_node_ptr_resolved_total"),
		multiPutBlocks: reg.Histogram("d2_node_multiput_blocks", obs.CountBuckets),
		forwardErrors:  reg.Counter("d2_node_replica_forward_errors_total"),
		repairPushes:   reg.Counter("d2_node_repair_pushes_total"),
		replicaDeficit: reg.Gauge("d2_node_replica_deficit"),
		handoffs:       reg.Counter("d2_node_handoffs_total"),
		rejoins:        reg.Counter("d2_node_rejoins_total"),
		succDrops:      reg.Counter("d2_node_succ_drops_total"),
		removals:       reg.Counter("d2_node_removals_scheduled_total"),
		expired:        reg.Counter("d2_node_expired_total"),
	}
}
