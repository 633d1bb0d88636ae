package tracing

import (
	"sort"
	"sync/atomic"
)

// Sink is a fixed-capacity, lock-free ring buffer of completed spans.
// Writers claim a slot with one atomic add and publish the span with one
// atomic pointer store; readers snapshot by atomic loads. Memory is
// bounded at capacity spans; old spans are overwritten. A nil *Sink
// discards spans.
type Sink struct {
	slots []atomic.Pointer[Span]
	next  atomic.Uint64 // total spans ever recorded
}

// DefaultSinkSpans is a tracer's ring capacity (and NewSink's default).
const DefaultSinkSpans = 4096

// NewSink creates a ring keeping the most recent capacity spans.
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = DefaultSinkSpans
	}
	return &Sink{slots: make([]atomic.Pointer[Span], capacity)}
}

// Record appends one externally built span (simulators and importers; the
// tracer's own spans arrive as their ActiveSpans end).
func (s *Sink) Record(rec Span) { s.put(rec) }

// put records one completed span.
func (s *Sink) put(rec Span) {
	if s == nil {
		return
	}
	slot := (s.next.Add(1) - 1) % uint64(len(s.slots))
	cp := rec
	s.slots[slot].Store(&cp)
}

// Total returns the number of spans ever recorded (including overwritten
// ones).
func (s *Sink) Total() uint64 {
	if s == nil {
		return 0
	}
	return s.next.Load()
}

// Spans snapshots the retained spans, oldest first by recording order.
// Under concurrent writes the snapshot is a consistent set of individually
// complete spans, not necessarily a gap-free window.
func (s *Sink) Spans() []Span {
	if s == nil {
		return nil
	}
	n := s.next.Load()
	cap64 := uint64(len(s.slots))
	kept := n
	if kept > cap64 {
		kept = cap64
	}
	start := (n - kept) % cap64
	out := make([]Span, 0, kept)
	for i := uint64(0); i < kept; i++ {
		if p := s.slots[(start+i)%cap64].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// Trace returns the retained spans of one trace, sorted by start time.
func (s *Sink) Trace(id uint64) []Span {
	var out []Span
	for _, sp := range s.Spans() {
		if sp.Trace == id {
			out = append(out, sp)
		}
	}
	sortSpans(out)
	return out
}

// Roots returns the retained root spans (Parent == 0), newest first.
func (s *Sink) Roots() []Span {
	var out []Span
	for _, sp := range s.Spans() {
		if sp.Parent == 0 {
			out = append(out, sp)
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// SlowestRoots returns up to n retained root spans by descending duration.
func (s *Sink) SlowestRoots(n int) []Span {
	roots := s.Roots()
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].Dur > roots[j].Dur })
	if n > 0 && len(roots) > n {
		roots = roots[:n]
	}
	return roots
}

// SortedByStart returns the spans ordered by start time (then span ID),
// without mutating the input — the ordering every multi-node merge wants.
func SortedByStart(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	sortSpans(out)
	return out
}

// sortSpans orders spans by start time, then span ID for determinism.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}
