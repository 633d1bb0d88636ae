package disk

import (
	"github.com/defragdht/d2/internal/obs"
)

// metrics instruments the engine against an obs.Registry. The d2_store_*
// families surface in d2ctl stats/top and feed the wal_stall health
// check; when no registry is supplied a private one keeps the handles
// non-nil so the hot paths never branch.
type metrics struct {
	walAppends *obs.Counter   // d2_store_wal_appends_total
	walBytes   *obs.Counter   // d2_store_wal_bytes_total
	walFsyncs  *obs.Counter   // d2_store_wal_fsyncs_total
	walStalls  *obs.Counter   // d2_store_wal_stalls_total: commits that waited ≥ the stall threshold for their fsync
	walErrors  *obs.Counter   // d2_store_wal_errors_total: append or fsync IO failures
	fsyncNs    *obs.Histogram // d2_store_wal_fsync_ns
	// d2_store_group_commit_records: records made durable per fsync — 1
	// when every write pays its own, the batch size under MultiPut.
	groupCommit *obs.Histogram

	checkpoints *obs.Counter // d2_store_checkpoints_total
	ckptErrors  *obs.Counter // d2_store_checkpoint_errors_total
	readErrors  *obs.Counter // d2_store_read_errors_total: payload preads that failed

	replayed *obs.Counter // d2_store_recovered_records_total
	torn     *obs.Counter // d2_store_torn_records_total: records discarded at recovery
}

// newMetrics registers the engine's series on reg and the state gauges
// reading s (which must outlive the registry's scrapes).
func newMetrics(reg *obs.Registry, s *Store) *metrics {
	if reg == nil {
		reg = obs.New()
	}
	reg.GaugeFunc("d2_store_wal_size_bytes", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.w == nil {
			return 0
		}
		return s.w.off
	})
	reg.GaugeFunc("d2_store_segment_files", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.man.segSeq == 0 {
			return 0
		}
		return 1
	})
	reg.GaugeFunc("d2_store_segment_bytes", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.segBytes
	})
	reg.GaugeFunc("d2_store_recovered_blocks", func() int64 {
		return int64(s.rec.Blocks + s.rec.Pointers)
	})
	return &metrics{
		walAppends:  reg.Counter("d2_store_wal_appends_total"),
		walBytes:    reg.Counter("d2_store_wal_bytes_total"),
		walFsyncs:   reg.Counter("d2_store_wal_fsyncs_total"),
		walStalls:   reg.Counter("d2_store_wal_stalls_total"),
		walErrors:   reg.Counter("d2_store_wal_errors_total"),
		fsyncNs:     reg.Histogram("d2_store_wal_fsync_ns", obs.LatencyBuckets),
		groupCommit: reg.Histogram("d2_store_group_commit_records", obs.CountBuckets),
		checkpoints: reg.Counter("d2_store_checkpoints_total"),
		ckptErrors:  reg.Counter("d2_store_checkpoint_errors_total"),
		readErrors:  reg.Counter("d2_store_read_errors_total"),
		replayed:    reg.Counter("d2_store_recovered_records_total"),
		torn:        reg.Counter("d2_store_torn_records_total"),
	}
}
