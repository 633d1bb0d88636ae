package census

import (
	"sort"

	"github.com/defragdht/d2/internal/stats"
)

// NodeReport pairs a node's identity with its parsed census report, as
// gathered by Client.ClusterCensus over WalkRing.
type NodeReport struct {
	Addr string  `json:"addr"`
	ID   string  `json:"id"` // short hex node ID
	Rep  *Report `json:"report,omitempty"`
}

// Cluster is the merged §5-style view of placement across the ring.
type Cluster struct {
	Nodes   []NodeReport   `json:"nodes"`
	Volumes []VolumeCensus `json:"volumes,omitempty"`

	TotalBlocks   int64 `json:"total_blocks"`
	TotalBytes    int64 `json:"total_bytes"`
	TotalFiles    int64 `json:"total_files"`
	TotalRuns     int64 `json:"total_runs"`
	StalePointers int64 `json:"stale_pointers"`

	// Locality is the expected number of owner switches a sequential
	// scan of an average file incurs: max(runs-files, 0)/files over the
	// merged per-volume counts. 0 is the paper's ideal — every file
	// wholly on one node.
	Locality float64 `json:"locality"`
	// FragRatio is mean contiguous runs per file (Locality + 1 when any
	// files exist); 1.0 is fully defragmented.
	FragRatio float64 `json:"frag_ratio"`
	// Imbalance is the §10 load metric: normalized standard deviation
	// of per-node primary bytes.
	Imbalance float64 `json:"imbalance"`
	// ReplicaSpread is the same statistic over per-node replica bytes —
	// how evenly replica placement spreads the secondary copies.
	ReplicaSpread float64 `json:"replica_spread"`

	// State classifies FragRatio against FragWarn/FragFail:
	// "ok", "warn", or "failing".
	State string `json:"state"`
}

// Merge combines two reports of disjoint primary ranges. It is
// associative and commutative (pure sums, max for MaxRun), so cluster
// aggregation is independent of walk order — the property the
// merge-associativity test pins down.
func Merge(a, b *Report) *Report {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil:
		a = &Report{}
	case b == nil:
		b = &Report{}
	}
	out := &Report{
		PrimaryBlocks: a.PrimaryBlocks + b.PrimaryBlocks,
		PrimaryBytes:  a.PrimaryBytes + b.PrimaryBytes,
		ReplicaBlocks: a.ReplicaBlocks + b.ReplicaBlocks,
		ReplicaBytes:  a.ReplicaBytes + b.ReplicaBytes,
		PointerBlocks: a.PointerBlocks + b.PointerBlocks,
		PointerBytes:  a.PointerBytes + b.PointerBytes,
		StalePointers: a.StalePointers + b.StalePointers,
		Files:         a.Files + b.Files,
		Runs:          a.Runs + b.Runs,
		SweepNanos:    maxI64(a.SweepNanos, b.SweepNanos),
		Sweeps:        a.Sweeps + b.Sweeps,
		Volumes:       mergeVolumes(a.Volumes, b.Volumes),
	}
	if d := out.Runs - out.Files; d > 0 {
		out.OwnerSwitches = d
	}
	return out
}

// mergeVolumes merges two sorted-or-not volume lists by volume ID,
// returning a sorted result.
func mergeVolumes(a, b []VolumeCensus) []VolumeCensus {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	byID := make(map[string]*VolumeCensus, len(a)+len(b))
	add := func(v VolumeCensus) {
		m, ok := byID[v.Volume]
		if !ok {
			cp := v
			byID[v.Volume] = &cp
			return
		}
		m.Blocks += v.Blocks
		m.Bytes += v.Bytes
		m.Files += v.Files
		m.Runs += v.Runs
		m.MaxRun = maxI64(m.MaxRun, v.MaxRun)
		for i := range m.RunHist {
			m.RunHist[i] += v.RunHist[i]
		}
	}
	for _, v := range a {
		add(v)
	}
	for _, v := range b {
		add(v)
	}
	out := make([]VolumeCensus, 0, len(byID))
	for _, v := range byID {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Volume < out[j].Volume })
	return out
}

// BuildCluster merges per-node reports into the cluster view and
// derives the §5/§10 metrics. Nodes with a nil report (an unparsable
// or older binary's answer) still appear in Nodes but contribute nothing.
func BuildCluster(nodes []NodeReport) *Cluster {
	c := &Cluster{Nodes: nodes, State: "ok"}
	merged := &Report{}
	var primary, replica []float64
	for _, n := range nodes {
		if n.Rep == nil {
			continue
		}
		merged = Merge(merged, n.Rep)
		primary = append(primary, float64(n.Rep.PrimaryBytes))
		replica = append(replica, float64(n.Rep.ReplicaBytes))
	}
	c.Volumes = merged.Volumes
	c.TotalBlocks = merged.PrimaryBlocks
	c.TotalBytes = merged.PrimaryBytes
	c.TotalFiles = merged.Files
	c.TotalRuns = merged.Runs
	c.StalePointers = merged.StalePointers
	if merged.Files > 0 {
		c.FragRatio = float64(merged.Runs) / float64(merged.Files)
		c.Locality = float64(merged.OwnerSwitches) / float64(merged.Files)
	}
	c.Imbalance = stats.NormStdDev(primary)
	c.ReplicaSpread = stats.NormStdDev(replica)
	switch {
	case c.FragRatio >= FragFail:
		c.State = "failing"
	case c.FragRatio >= FragWarn:
		c.State = "warn"
	}
	return c
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
