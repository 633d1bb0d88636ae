package disk

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/store"
)

// Checkpointing compacts the log: the live index is streamed, in key
// order, into a fresh segment file, after which the old WAL(s) and old
// segment are deleted. The protocol is crash-safe at every step because
// a manifest naming a coherent replay set is always durable before the
// files it abandons go away:
//
//  1. Rotate: create a new WAL file and durably write a rotation
//     manifest listing the old files PLUS the new WAL — before any
//     record reaches it. A crash here replays everything.
//  2. Swap writers and snapshot the index under the write lock (value
//     copies of the entries and of the pointer side table), then stream
//     the snapshot into the segment without holding the lock; concurrent
//     writes go to the new WAL and are replayed over the segment, so they
//     win regardless.
//  3. Commit: fsync the segment, durably write the final manifest
//     {segment, active WAL}. A crash before this replays the old set;
//     after it, the new.
//  4. Retarget unchanged index entries at their segment copies and
//     delete the old files. An entry is unchanged when its location still
//     equals the snapshot's: a newer put always lands at a new (file,
//     offset), so the test is exact. Readers are blocked only for the
//     retarget pass; payload reads never race a close because files are
//     closed under the write lock.

// checkpointDue reports whether a checkpoint would pay for itself: the WAL
// has passed the configured size and at least half of what the log files
// hold is dead (superseded or deleted records). A checkpoint copies every
// live byte, so one that reclaims less than it copies only doubles the
// store's disk and write load while it runs — on a node that is written
// once and rarely overwritten, every CheckpointBytes of new data used to
// rewrite everything already stored. Recovery loses nothing by waiting:
// it replays the same live records from a WAL as from a segment. The
// caller holds mu.
func (s *Store) checkpointDue() bool {
	if s.w.off < s.opt.CheckpointBytes {
		return false
	}
	entries, bytes := s.Footprint()
	live := bytes + int64(entries)*putPayloadOff
	return s.segBytes+s.w.off >= 2*live
}

// startCheckpoint runs a checkpoint in the background unless one is
// already running.
func (s *Store) startCheckpoint() {
	if !s.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.ckptRunning.Store(false)
		_ = s.Checkpoint() // counted in d2_store_checkpoint_errors_total
	}()
}

// ckptSnap is one index entry captured for checkpointing, by value, so
// the streaming pass reads no shared state and the retarget pass can
// tell whether the live entry still holds the location copied.
type ckptSnap struct {
	k   keys.Key
	v   entry
	ptr store.Ptr // a pointer entry's side-table record (Target set)
	// segOff is filled during streaming: the payload offset in the new
	// segment (data entries only).
	segOff int64
}

// Checkpoint compacts the store into one segment file plus a fresh WAL.
// It is safe to call concurrently with reads and writes; concurrent
// checkpoints serialize. A failed checkpoint leaves the rotation manifest
// as the replay set, so it loses no acknowledged block.
func (s *Store) Checkpoint() (err error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	defer func() {
		if err != nil {
			s.m.ckptErrors.Inc()
		}
	}()

	// Allocate file sequence numbers and write the rotation manifest.
	// ckptMu is the only writer of man/seq besides Open, so reading them
	// under the read lock is stable for the rest of this call.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil
	}
	oldMan := manifest{segSeq: s.man.segSeq, walSeqs: append([]uint64(nil), s.man.walSeqs...)}
	walSeq := s.seq + 1
	segSeq := s.seq + 2
	s.mu.RUnlock()
	if segSeq > maxSeq {
		return fmt.Errorf("disk: checkpoint: file sequence %d does not fit the index's 32-bit file field", segSeq)
	}

	walFile, err := createLogFile(s.dir, walName(walSeq), magicWAL, walSeq)
	if err != nil {
		return fmt.Errorf("disk: checkpoint: %w", err)
	}
	rotMan := manifest{segSeq: oldMan.segSeq, walSeqs: append(append([]uint64(nil), oldMan.walSeqs...), walSeq)}
	if err := writeManifest(s.dir, rotMan); err != nil {
		walFile.Close()
		os.Remove(filepath.Join(s.dir, walName(walSeq)))
		return fmt.Errorf("disk: checkpoint: %w", err)
	}

	// Swap writers and snapshot the index.
	snaps := make([]ckptSnap, 0, s.Len())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		walFile.Close()
		return nil
	}
	oldW := s.w
	s.w = newWALWriter(walFile, walSeq, headerSize,
		s.opt.Fsync, s.opt.FsyncInterval, s.m)
	s.files[walSeq] = walFile
	s.man = rotMan
	s.seq = segSeq
	s.Ascend(func(k keys.Key, e entry) bool {
		p, _ := s.Pointer(k)
		snaps = append(snaps, ckptSnap{k: k, v: e, ptr: p})
		return true
	})
	readFiles := make(map[uint64]*os.File, len(s.files))
	for seq, f := range s.files {
		readFiles[seq] = f
	}
	s.mu.Unlock()
	if s.ckptSnapped != nil {
		s.ckptSnapped()
	}

	// The old writer's goroutines are no longer needed; its file stays
	// open in s.files for payload reads until the commit below.
	if err := oldW.close(); err != nil {
		// A sticky fsync error means records acknowledged under the old
		// writer may not be durable; the segment copy we are about to
		// write supersedes them, so continue — the error was already
		// counted in d2_store_wal_errors_total.
		_ = err
	}

	segFile, err := s.writeSegment(segSeq, snaps, readFiles)
	if err != nil {
		os.Remove(filepath.Join(s.dir, segName(segSeq)))
		return fmt.Errorf("disk: checkpoint: %w", err)
	}
	segInfo, err := segFile.Stat()
	if err != nil {
		segFile.Close()
		os.Remove(filepath.Join(s.dir, segName(segSeq)))
		return fmt.Errorf("disk: checkpoint: %w", err)
	}

	// Commit: after this manifest is durable, recovery uses the new set.
	finalMan := manifest{segSeq: segSeq, walSeqs: []uint64{walSeq}}
	if err := writeManifest(s.dir, finalMan); err != nil {
		segFile.Close()
		os.Remove(filepath.Join(s.dir, segName(segSeq)))
		return fmt.Errorf("disk: checkpoint: %w", err)
	}

	// Retarget live entries at the segment and drop the old files.
	s.mu.Lock()
	s.man = finalMan
	s.files[segSeq] = segFile
	s.segBytes = segInfo.Size()
	for i := range snaps {
		sn := &snaps[i]
		if sn.ptr.Target != "" {
			continue
		}
		if cur, ok := s.Peek(sn.k); ok && cur.Payload == sn.v.Payload {
			cur.Payload = loc{sn.segOff, uint32(segSeq), sn.v.Payload.length}
		}
	}
	var dead []uint64
	for seq, f := range s.files {
		if seq != segSeq && seq != walSeq {
			f.Close()
			delete(s.files, seq)
			dead = append(dead, seq)
		}
	}
	closed := s.closed
	s.mu.Unlock()

	if !closed {
		for _, seq := range dead {
			name := segName(seq)
			if seq != oldMan.segSeq {
				name = walName(seq)
			}
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	s.m.checkpoints.Inc()
	return nil
}

// writeSegment streams the snapshot into a new segment file in key
// order, recording each data entry's payload offset, and fsyncs it.
// Payloads are read from the files captured at snapshot time. A payload
// that cannot be read (counted as a read error) fails the segment: the
// old files it would replace still hold that block.
func (s *Store) writeSegment(segSeq uint64, snaps []ckptSnap, readFiles map[uint64]*os.File) (*os.File, error) {
	f, err := createLogFile(s.dir, segName(segSeq), magicSeg, segSeq)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*os.File, error) {
		f.Close()
		return nil, err
	}

	off := int64(headerSize)
	var recBuf, payload []byte
	for i := range snaps {
		sn := &snaps[i]
		if p := sn.ptr; p.Target != "" {
			recBuf = appendPointer(recBuf[:0], sn.k, p.Target, p.Size, p.Since)
			if sn.v.Expires != 0 {
				// A pointer record has no deadline field; a removal
				// deadline rides behind it as a refresh record.
				recBuf = appendRefresh(recBuf, sn.k, sn.v.Expires)
			}
		} else {
			n := int(sn.v.Payload.length)
			if cap(payload) < n {
				payload = make([]byte, n)
			}
			payload = payload[:n]
			if n > 0 {
				src := readFiles[uint64(sn.v.Payload.file)]
				if src == nil {
					s.m.readErrors.Inc()
					return fail(fmt.Errorf("payload of %s: file %d not open", sn.k.Short(), sn.v.Payload.file))
				}
				if _, err := src.ReadAt(payload, sn.v.Payload.off); err != nil {
					s.m.readErrors.Inc()
					return fail(fmt.Errorf("payload of %s: %w", sn.k.Short(), err))
				}
			}
			recBuf = appendPut(recBuf[:0], sn.k, sn.v.Expires, payload)
			sn.segOff = off + putPayloadOff
		}
		if _, err := f.Write(recBuf); err != nil {
			return fail(err)
		}
		off += int64(len(recBuf))
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	return f, nil
}
