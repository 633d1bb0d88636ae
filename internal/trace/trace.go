// Package trace defines the workload model shared by every experiment: a
// timestamped stream of file-system accesses by users, plus the paper's two
// segmentations of that stream — tasks (sequences split by an inter-arrival
// threshold, §8.1) and access groups (split by ≥ 1 s think times, §9.1).
package trace

import (
	"fmt"
	"sort"
	"time"
)

// BlockSize is D2's storage unit: all blocks are at most 8 KB (§3).
const BlockSize = 8 * 1024

// InodeBytes is the modelled size of a file's metadata block (block 0).
const InodeBytes = 512

// BlockBytes returns the modelled size of block i of a file of the given
// size: InodeBytes for the metadata block 0, and for data block i ≥ 1 the
// file bytes it carries (zero past the end of the file).
func BlockBytes(fileSize, i int64) int64 {
	if i == 0 {
		return InodeBytes
	}
	return max(0, min(BlockSize, fileSize-(i-1)*BlockSize))
}

// Op enumerates workload operations.
type Op uint8

// Workload operations. OpCreate writes a brand-new file, OpWrite modifies
// an existing one (new versions of the touched blocks), OpDelete removes a
// file, and OpRead fetches a byte range.
const (
	OpRead Op = iota + 1
	OpWrite
	OpCreate
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCreate:
		return "create"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is one access in a workload trace.
type Event struct {
	// At is the event time as an offset from the trace start.
	At time.Duration
	// User identifies the user (Harvard), application (HP), or client IP
	// (Web) issuing the access.
	User int32
	// Op is the operation.
	Op Op
	// Path names the file: a slash-separated path, a disk block region
	// name (HP), or a reversed-domain URL (Web).
	Path string
	// Offset and Length delimit the byte range touched. For OpCreate,
	// Offset is 0 and Length is the new file's size. For OpDelete both
	// are 0 (the whole file is removed).
	Offset int64
	Length int64
}

// BlockSpan returns the index of the first data block the event touches and
// the number of blocks, with data blocks numbered from 1 (block 0 is the
// file's inode/metadata block).
func (e *Event) BlockSpan() (first, count int64) {
	if e.Op == OpDelete || e.Length == 0 {
		return 1, 0
	}
	lo := e.Offset / BlockSize
	hi := (e.Offset + e.Length - 1) / BlockSize
	return lo + 1, hi - lo + 1
}

// File describes one file present in a file system snapshot.
type File struct {
	Path string
	Size int64
}

// NumBlocks returns the number of data blocks the file occupies.
func (f File) NumBlocks() int64 {
	if f.Size == 0 {
		return 0
	}
	return (f.Size + BlockSize - 1) / BlockSize
}

// Trace is a complete workload: an initial file system plus an event stream
// sorted by time.
type Trace struct {
	// Name labels the workload ("harvard", "hp", "web").
	Name string
	// Duration is the trace length.
	Duration time.Duration
	// Users is the number of distinct users issuing events.
	Users int
	// Initial lists the files existing at trace start.
	Initial []File
	// Events is the access stream, sorted by At.
	Events []Event
}

// Validate checks the structural invariants the experiments rely on.
func (t *Trace) Validate() error {
	if !sort.SliceIsSorted(t.Events, func(i, j int) bool {
		return t.Events[i].At < t.Events[j].At
	}) {
		return fmt.Errorf("trace %q: events not sorted by time", t.Name)
	}
	for i := range t.Events {
		e := &t.Events[i]
		if e.At < 0 || e.At > t.Duration {
			return fmt.Errorf("trace %q: event %d at %v outside [0, %v]", t.Name, i, e.At, t.Duration)
		}
		if int(e.User) < 0 || int(e.User) >= t.Users {
			return fmt.Errorf("trace %q: event %d has user %d, want [0, %d)", t.Name, i, e.User, t.Users)
		}
		if e.Op < OpRead || e.Op > OpDelete {
			return fmt.Errorf("trace %q: event %d has invalid op %d", t.Name, i, e.Op)
		}
		if e.Length < 0 || e.Offset < 0 {
			return fmt.Errorf("trace %q: event %d has negative range", t.Name, i)
		}
	}
	return nil
}

// TotalInitialBytes returns the number of bytes in the initial file system.
func (t *Trace) TotalInitialBytes() int64 {
	var total int64
	for _, f := range t.Initial {
		total += f.Size
	}
	return total
}

// Task is a maximal sequence of one user's events where consecutive events
// are separated by less than the inter-arrival threshold, capped at the
// maximum task duration (§8.1). Events holds indices into Trace.Events.
type Task struct {
	User   int32
	Start  time.Duration
	End    time.Duration
	Events []int
}

// Tasks segments the trace into per-user tasks using the given
// inter-arrival threshold and maximum task duration. A zero maxDur means
// no cap. The paper uses maxDur = 5 min.
func Tasks(t *Trace, inter, maxDur time.Duration) []Task {
	open := make(map[int32]*Task)
	var out []Task
	flush := func(u int32) {
		if task := open[u]; task != nil {
			out = append(out, *task)
			delete(open, u)
		}
	}
	for i := range t.Events {
		e := &t.Events[i]
		task := open[e.User]
		if task != nil {
			gap := e.At - t.Events[task.Events[len(task.Events)-1]].At
			tooLong := maxDur > 0 && e.At-task.Start > maxDur
			if gap >= inter || tooLong {
				flush(e.User)
				task = nil
			}
		}
		if task == nil {
			open[e.User] = &Task{User: e.User, Start: e.At, End: e.At, Events: []int{i}}
			continue
		}
		task.End = e.At
		task.Events = append(task.Events, i)
	}
	for u := range open {
		flush(u)
	}
	// Flushing map entries loses order; restore chronological order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].User < out[j].User
	})
	return out
}

// AccessGroups segments the trace into per-user access groups: runs of
// events separated by think times shorter than think (§9.1 uses 1 s).
// Access groups are Tasks with no duration cap.
func AccessGroups(t *Trace, think time.Duration) []Task {
	return Tasks(t, think, 0)
}

// BlockID compactly identifies one block of one file for set-membership
// accounting: the file's index in some catalog order, and the block number.
type BlockID struct {
	FileIdx  int32
	BlockNum int64
}

// Catalog tracks the set of live files while replaying a trace, assigning
// each distinct path a stable index.
type Catalog struct {
	idx   map[string]int32
	paths []string
	sizes []int64
	live  []bool
}

// NewCatalog builds a catalog seeded with the trace's initial files.
func NewCatalog(initial []File) *Catalog {
	c := &Catalog{idx: make(map[string]int32, len(initial))}
	for _, f := range initial {
		c.ensure(f.Path)
		i := c.idx[f.Path]
		c.sizes[i] = f.Size
		c.live[i] = true
	}
	return c
}

func (c *Catalog) ensure(path string) int32 {
	if i, ok := c.idx[path]; ok {
		return i
	}
	i := int32(len(c.paths))
	c.idx[path] = i
	c.paths = append(c.paths, path)
	c.sizes = append(c.sizes, 0)
	c.live = append(c.live, false)
	return i
}

// Index returns the stable index for path, creating one if needed.
func (c *Catalog) Index(path string) int32 { return c.ensure(path) }

// Lookup returns the index for path without creating one.
func (c *Catalog) Lookup(path string) (int32, bool) {
	i, ok := c.idx[path]
	return i, ok
}

// Path returns the path at index i.
func (c *Catalog) Path(i int32) string { return c.paths[i] }

// Size returns the current size of the file at index i (0 if deleted).
func (c *Catalog) Size(i int32) int64 {
	if !c.live[i] {
		return 0
	}
	return c.sizes[i]
}

// Live reports whether the file at index i currently exists.
func (c *Catalog) Live(i int32) bool { return c.live[i] }

// NumFiles returns the number of distinct paths seen so far.
func (c *Catalog) NumFiles() int { return len(c.paths) }

// TotalBytes returns the bytes of all live files.
func (c *Catalog) TotalBytes() int64 {
	var total int64
	for i, sz := range c.sizes {
		if c.live[i] {
			total += sz
		}
	}
	return total
}

// Apply replays one event against the catalog and returns the file index.
// Creates mark the file live with the new size; writes grow the file if the
// range extends past the end; deletes mark it dead.
func (c *Catalog) Apply(e *Event) int32 {
	i := c.ensure(e.Path)
	switch e.Op {
	case OpCreate:
		c.live[i] = true
		c.sizes[i] = e.Length
	case OpWrite:
		c.live[i] = true
		if end := e.Offset + e.Length; end > c.sizes[i] {
			c.sizes[i] = end
		}
	case OpDelete:
		c.live[i] = false
	}
	return i
}

// ChurnDay summarizes one day of writes and removals for Table 3.
type ChurnDay struct {
	// StartBytes is the total live bytes at the start of the day (T_i).
	StartBytes int64
	// WrittenBytes is the bytes written during the day (W_i).
	WrittenBytes int64
	// RemovedBytes is the bytes removed during the day (R_i).
	RemovedBytes int64
}

// WriteRatio returns W_i / T_i (0 when the system started empty).
func (d ChurnDay) WriteRatio() float64 {
	if d.StartBytes == 0 {
		return 0
	}
	return float64(d.WrittenBytes) / float64(d.StartBytes)
}

// RemoveRatio returns R_i / T_i.
func (d ChurnDay) RemoveRatio() float64 {
	if d.StartBytes == 0 {
		return 0
	}
	return float64(d.RemovedBytes) / float64(d.StartBytes)
}

// DailyChurn replays the trace and returns per-day write/remove volumes
// relative to the data present at the start of each day (Table 3).
func DailyChurn(t *Trace) []ChurnDay {
	days := int(t.Duration / (24 * time.Hour))
	if t.Duration%(24*time.Hour) != 0 {
		days++
	}
	if days == 0 {
		return nil
	}
	out := make([]ChurnDay, days)
	cat := NewCatalog(t.Initial)
	out[0].StartBytes = cat.TotalBytes()
	day := 0
	for i := range t.Events {
		e := &t.Events[i]
		for d := int(e.At / (24 * time.Hour)); day < d && day+1 < days; {
			day++
			out[day].StartBytes = cat.TotalBytes()
		}
		switch e.Op {
		case OpCreate:
			out[day].WrittenBytes += e.Length
		case OpWrite:
			out[day].WrittenBytes += e.Length
		case OpDelete:
			if idx, ok := cat.Lookup(e.Path); ok {
				out[day].RemovedBytes += cat.Size(idx)
			}
		}
		cat.Apply(e)
	}
	return out
}
