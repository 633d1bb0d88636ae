package obs

// Snapshot is a point-in-time copy of a registry's metrics, suitable for
// JSON transport between nodes and for merging into cluster-wide views.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// HistSnapshot is one histogram's frozen state.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds.
	Bounds []int64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	Counts []uint64 `json:"counts"`
	// Sum is the sum of all observations.
	Sum int64 `json:"sum"`
}

// Count returns the histogram's total observation count.
func (h HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Mean returns the average observation, or 0 with no observations.
func (h HistSnapshot) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum) / float64(n)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1); see Quantile.
func (h HistSnapshot) Quantile(q float64) float64 {
	return Quantile(h.Bounds, h.Counts, h.Count(), q)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of total observations
// spread over fixed buckets — counts has len(bounds)+1 entries, the last
// the overflow bucket — by linear interpolation inside the bucket
// containing it, the standard fixed-bucket estimate. Observations in the
// overflow bucket report the largest bound. It reads counts in place, so
// a sampler can pass a scratch vector of interval deltas.
func Quantile(bounds []int64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			return float64(bounds[len(bounds)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(bounds[i-1])
		}
		hi := float64(bounds[i])
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return float64(bounds[len(bounds)-1])
}

// Snapshot freezes the registry's current state. Gauge functions are
// evaluated here.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFuncs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gaugeFuncs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)+len(gaugeFuncs)),
		Histograms: make(map[string]HistSnapshot, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, fn := range gaugeFuncs {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		hs := HistSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[k] = hs
	}
	return s
}

// Merge combines two snapshots into a cluster-wide view: counters and
// histograms add, gauges sum (a cluster's stored bytes is the sum of its
// nodes'). Same-name histograms with mismatched bounds cannot be added;
// the one with the greater bounds (longer, then lexicographically larger)
// wins outright — equivalent to summing only the entries in the maximal
// bounds class, which keeps Merge associative and commutative regardless
// of fold order. Neither input is modified.
func Merge(a, b Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(a.Counters)+len(b.Counters)),
		Gauges:     make(map[string]int64, len(a.Gauges)+len(b.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(a.Histograms)+len(b.Histograms)),
	}
	for k, v := range a.Counters {
		out.Counters[k] = v
	}
	for k, v := range b.Counters {
		out.Counters[k] += v
	}
	for k, v := range a.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range b.Gauges {
		out.Gauges[k] += v
	}
	for k, v := range a.Histograms {
		out.Histograms[k] = cloneHist(v)
	}
	for k, v := range b.Histograms {
		prev, ok := out.Histograms[k]
		if !ok {
			out.Histograms[k] = cloneHist(v)
			continue
		}
		switch compareBounds(prev.Bounds, v.Bounds) {
		case 0:
			for i := range prev.Counts {
				prev.Counts[i] += v.Counts[i]
			}
			prev.Sum += v.Sum
			out.Histograms[k] = prev
		case -1:
			out.Histograms[k] = cloneHist(v) // greater bounds win
		}
	}
	return out
}

// MergeAll folds a list of snapshots into one.
func MergeAll(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for i, s := range snaps {
		if i == 0 {
			out = Merge(Snapshot{}, s) // deep copy
			continue
		}
		out = Merge(out, s)
	}
	return out
}

func cloneHist(h HistSnapshot) HistSnapshot {
	return HistSnapshot{
		Bounds: append([]int64(nil), h.Bounds...),
		Counts: append([]uint64(nil), h.Counts...),
		Sum:    h.Sum,
	}
}

// compareBounds totally orders bucket-bound vectors: by length, then
// element-wise. Returns -1, 0, or 1.
func compareBounds(a, b []int64) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
