package simdht

import (
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/placement"
	"github.com/defragdht/d2/internal/synth"
	"github.com/defragdht/d2/internal/trace"
)

// Replay drives a workload trace into a simulated cluster: initial files
// are inserted instantly (as the paper initializes its simulations, §8.1),
// then creates, writes, and deletes flow through user write links and the
// removal delay, while reads probe block availability.
type Replay struct {
	C     *Cluster
	Keyer placement.Keyer
	Trace *trace.Trace
	// Offset is the virtual time at which trace time zero falls, leaving
	// room for a load-balance warm-up phase before the workload starts.
	Offset time.Duration

	sizes map[string]int64
}

// NewReplay prepares a replay.
func NewReplay(c *Cluster, keyer placement.Keyer, tr *trace.Trace, offset time.Duration) *Replay {
	return &Replay{C: c, Keyer: keyer, Trace: tr, Offset: offset, sizes: make(map[string]int64)}
}

// InsertInitial loads the trace's initial file system into the cluster.
func (r *Replay) InsertInitial() {
	for _, f := range r.Trace.Initial {
		r.sizes[f.Path] = f.Size
		for b := int64(0); b <= f.NumBlocks(); b++ {
			r.C.PutInstant(r.Keyer.BlockKey(f.Path, uint64(b)), blockSize(f.Size, b))
		}
	}
}

// blockSize is trace.BlockBytes in the simulator's block-size type.
func blockSize(fileSize, i int64) int32 { return int32(trace.BlockBytes(fileSize, i)) }

// ReadProbe is invoked for every read event with the availability verdict.
type ReadProbe func(eventIdx int, ok bool)

// ScheduleEvents schedules every trace event on the cluster's engine.
// onRead (optional) receives the outcome of each read: ok is false when
// any block the read needs is unavailable. Reads of files that do not
// exist (trace causality noise) are skipped silently.
func (r *Replay) ScheduleEvents(onRead ReadProbe) {
	for i := range r.Trace.Events {
		i := i
		e := &r.Trace.Events[i]
		r.C.Eng.At(r.Offset+e.At, func() { r.apply(i, onRead) })
	}
}

func (r *Replay) apply(i int, onRead ReadProbe) {
	e := &r.Trace.Events[i]
	switch e.Op {
	case trace.OpCreate:
		r.sizes[e.Path] = e.Length
		n := (e.Length + trace.BlockSize - 1) / trace.BlockSize
		for b := int64(0); b <= n; b++ {
			r.C.Write(e.User, r.Keyer.BlockKey(e.Path, uint64(b)), blockSize(e.Length, b), nil)
		}
	case trace.OpWrite:
		size, ok := r.sizes[e.Path]
		if !ok {
			// Write to an unseen file: treat as creation of the range.
			size = 0
		}
		if end := e.Offset + e.Length; end > size {
			size = end
			r.sizes[e.Path] = size
		}
		first, count := e.BlockSpan()
		for b := first; b < first+count; b++ {
			r.C.Write(e.User, r.Keyer.BlockKey(e.Path, uint64(b)), blockSize(size, b), nil)
		}
		// Metadata update along the path: modeled as the inode rewrite.
		r.C.Write(e.User, r.Keyer.BlockKey(e.Path, 0), blockSize(size, 0), nil)
	case trace.OpDelete:
		size, ok := r.sizes[e.Path]
		if !ok {
			return
		}
		delete(r.sizes, e.Path)
		r.C.Remove(r.Keyer.BlockKey(e.Path, 0))
		n := (size + trace.BlockSize - 1) / trace.BlockSize
		for b := int64(1); b <= n; b++ {
			r.C.Remove(r.Keyer.BlockKey(e.Path, uint64(b)))
		}
	case trace.OpRead:
		if _, ok := r.sizes[e.Path]; !ok {
			return
		}
		ok := r.readAvailable(e)
		if onRead != nil {
			onRead(i, ok)
		}
	}
}

// readAvailable checks that the inode and every data block the read spans
// exist and are reachable.
func (r *Replay) readAvailable(e *trace.Event) bool {
	if !r.blockOK(r.Keyer.BlockKey(e.Path, 0)) {
		return false
	}
	first, count := e.BlockSpan()
	for b := first; b < first+count; b++ {
		if !r.blockOK(r.Keyer.BlockKey(e.Path, uint64(b))) {
			return false
		}
	}
	return true
}

func (r *Replay) blockOK(k keys.Key) bool {
	exists, avail := r.C.BlockStatus(k)
	// A block mid-write (queued on the user link) does not exist yet;
	// D2-FS's 30 s write-back cache hides exactly this window from the
	// writer, so treat it as available rather than failed.
	if !exists {
		return true
	}
	return avail
}

// ScheduleFailures applies a failure schedule's transitions, offset like
// the trace events.
func (r *Replay) ScheduleFailures(s *synth.Schedule) {
	for _, t := range s.Transitions() {
		t := t
		r.C.Eng.At(r.Offset+t.At, func() {
			if t.Up {
				r.C.NodeRecover(t.Node)
			} else {
				r.C.NodeFail(t.Node)
			}
		})
	}
}
