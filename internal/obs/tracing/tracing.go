// Package tracing is D2's causal request tracer: sampled per-request span
// trees threaded through context.Context and across the RPC wire. A trace
// is identified by a 64-bit trace ID; every span carries its own 64-bit
// span ID and its parent's, so spans recorded on different nodes reassemble
// into one tree (d2ctl trace, /tracez). The package is self-contained
// (stdlib only) so every other layer — obs, transport, node, client, fs,
// simdht — can import it without cycles.
//
// Cost model: when a request is not traced (sampling off, no slow
// threshold, no trace in context) the Start* functions return a nil span
// and the original context, and the whole path is allocation-free — the
// hot-path guarantee BenchmarkBatchedRead's alloc guard asserts. Traced
// requests allocate (span records, a context value); they are the sampled
// few.
//
// Sampling is head-based with a tail-latency escape hatch: a root span is
// kept if it was head-sampled (1 in N), or — when a slow threshold is set —
// if the whole operation exceeded the threshold, regardless of the
// sampling rate. To make the latter possible, root spans buffer their
// subtree locally and flush to the ring sink only on keep; spans recorded
// on remote nodes flush to that node's sink immediately (a remote node
// cannot know the root's outcome), so a dropped trace leaves at most a few
// orphaned remote spans that age out of the ring.
package tracing

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded operation: a node in a trace tree. Fields are
// exported for gob (the TraceFetch RPC) and JSON (/tracez, exports).
type Span struct {
	// Trace groups spans of one request; Parent is zero on the root.
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name identifies the operation, dotted ("client.get", "rpc.find_succ").
	Name string `json:"name"`
	// Node labels the process/node that recorded the span (its transport
	// address, or "client"/"sim" style labels).
	Node string `json:"node,omitempty"`
	// Start is the span's wall-clock start in Unix nanoseconds; Dur its
	// duration in nanoseconds. Cross-node ordering assumes loosely
	// synchronized clocks (exact within one process).
	Start int64 `json:"start"`
	Dur   int64 `json:"dur"`
	// Attrs is a rendered "k=v k=v" annotation list (cache hit/miss,
	// redirect targets, batch widths).
	Attrs string `json:"attrs,omitempty"`
}

// TraceIDString renders a trace ID the way every surface prints it.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses the TraceIDString form.
func ParseTraceID(s string) (uint64, error) {
	var id uint64
	_, err := fmt.Sscanf(strings.TrimSpace(s), "%x", &id)
	return id, err
}

// Config parameterizes a Tracer.
type Config struct {
	// Node labels spans recorded by this tracer.
	Node string
	// SampleEvery keeps 1 in N root operations (0 disables head sampling).
	SampleEvery int
	// SlowThreshold force-keeps any root operation at least this slow,
	// regardless of SampleEvery. Setting it makes every root provisionally
	// traced (buffered, then dropped if fast), which costs allocations on
	// every operation — the price of tail sampling.
	SlowThreshold time.Duration
}

// Tracer makes sampling decisions and owns the process-local span sink.
// All methods are safe on a nil receiver (tracing off) and for concurrent
// use.
type Tracer struct {
	node        string
	sink        *Sink
	sampleEvery atomic.Int64
	slowNS      atomic.Int64
	seq         atomic.Uint64 // head-sampling round-robin

	mu     sync.Mutex
	onSlow func(root Span) // called for force-kept slow roots
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	t := &Tracer{node: cfg.Node, sink: NewSink(DefaultSinkSpans)}
	t.sampleEvery.Store(int64(cfg.SampleEvery))
	t.slowNS.Store(int64(cfg.SlowThreshold))
	return t
}

// Sink returns the tracer's span ring (nil-safe).
func (t *Tracer) Sink() *Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// Node returns the tracer's span label.
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// SetSampleEvery changes the head-sampling rate (0 disables).
func (t *Tracer) SetSampleEvery(n int) {
	if t != nil {
		t.sampleEvery.Store(int64(n))
	}
}

// SetSlowThreshold changes the slow force-keep threshold (0 disables).
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t != nil {
		t.slowNS.Store(int64(d))
	}
}

// SlowThreshold returns the current slow force-keep threshold.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.slowNS.Load())
}

// OnSlow installs a hook invoked with the root span of every force-kept
// slow trace (the slow-request log). The hook runs on the request
// goroutine; keep it cheap.
func (t *Tracer) OnSlow(fn func(root Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onSlow = fn
	t.mu.Unlock()
}

func (t *Tracer) slowHook() func(Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.onSlow
}

// ActiveSpan is a span being recorded. A nil *ActiveSpan is a no-op on
// every method, so untraced paths carry no conditionals.
type ActiveSpan struct {
	t       *Tracer
	buf     *traceBuf // root-local buffer; nil = flush straight to sink
	rec     Span
	sampled bool // head-sampled (kept regardless of latency)
	root    bool
	remote  bool // parent marker from the wire; never recorded itself
	ended   atomic.Bool

	mu sync.Mutex // guards rec.Attrs (fan-out children may share a parent)
}

// traceBuf collects a root's subtree until the keep/drop decision.
type traceBuf struct {
	mu    sync.Mutex
	spans []Span
}

type ctxKey struct{}

// FromContext returns the active span in ctx, or nil.
func FromContext(ctx context.Context) *ActiveSpan {
	sp, _ := ctx.Value(ctxKey{}).(*ActiveSpan)
	return sp
}

// ContextWith returns ctx carrying sp.
func ContextWith(ctx context.Context, sp *ActiveSpan) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// IDs returns the span's trace and span IDs (zero on nil).
func (s *ActiveSpan) IDs() (trace, span uint64) {
	if s == nil {
		return 0, 0
	}
	return s.rec.Trace, s.rec.ID
}

// TraceID returns the span's trace ID (zero on nil).
func (s *ActiveSpan) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.Trace
}

// WireContext extracts the trace/span IDs an RPC should propagate from
// ctx: the active span's, or zeros when untraced.
func WireContext(ctx context.Context) (trace, span uint64) {
	return FromContext(ctx).IDs()
}

// WithRemote returns ctx carrying a remote parent: the server-side
// counterpart of WireContext. Spans started under it flush straight to
// their tracer's sink. A zero trace ID returns ctx unchanged.
func WithRemote(ctx context.Context, trace, span uint64) context.Context {
	if trace == 0 {
		return ctx
	}
	return ContextWith(ctx, &ActiveSpan{
		remote: true,
		rec:    Span{Trace: trace, ID: span},
	})
}

// HandlerContext converts a caller-side context into the context an RPC
// handler should run under: a fresh background context carrying only the
// caller's trace position (what the wire would carry). The in-memory
// transport uses it so mem and TCP handlers see identical trace state.
func HandlerContext(ctx context.Context) context.Context {
	tr, sp := WireContext(ctx)
	return WithRemote(context.Background(), tr, sp)
}

// id returns a non-zero random 64-bit ID.
func id() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// StartOp begins a client-operation span: a child when ctx already carries
// a trace, otherwise a new root subject to the sampling policy. It returns
// the (possibly updated) context and the span, nil when untraced.
func (t *Tracer) StartOp(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if sp := FromContext(ctx); sp != nil {
		return t.startChild(ctx, sp, name)
	}
	if t == nil {
		return ctx, nil
	}
	sampled := false
	if n := t.sampleEvery.Load(); n > 0 {
		sampled = t.seq.Add(1)%uint64(n) == 0
	}
	if !sampled && t.slowNS.Load() <= 0 {
		return ctx, nil
	}
	return t.startRoot(ctx, name, sampled)
}

// ForceOp begins an always-kept root span (d2ctl trace, tests), ignoring
// the sampling rate. A trace already in ctx gets a child instead.
func (t *Tracer) ForceOp(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if sp := FromContext(ctx); sp != nil {
		return t.startChild(ctx, sp, name)
	}
	if t == nil {
		return ctx, nil
	}
	return t.startRoot(ctx, name, true)
}

// StartSpan begins a child span of whatever trace ctx carries; a no-op
// (nil span, same ctx) when ctx is untraced. This is the instrumentation
// entry point for everything below the operation root: lookups, RPC
// sends, handlers, block assembly.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	sp := FromContext(ctx)
	if sp == nil {
		return ctx, nil
	}
	return t.startChild(ctx, sp, name)
}

// ChildSpan begins a child span of whatever trace ctx carries using only
// the parent's recording state — for layers (like fs) that sit above a
// traced client and hold no tracer of their own. A no-op on untraced
// contexts, exactly like StartSpan.
func ChildSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	return (*Tracer)(nil).StartSpan(ctx, name)
}

func (t *Tracer) startRoot(ctx context.Context, name string, sampled bool) (context.Context, *ActiveSpan) {
	sp := &ActiveSpan{
		t:       t,
		buf:     &traceBuf{},
		sampled: sampled,
		root:    true,
		rec: Span{
			Trace: id(),
			ID:    id(),
			Name:  name,
			Node:  t.node,
			Start: time.Now().UnixNano(),
		},
	}
	return ContextWith(ctx, sp), sp
}

// startChild creates a child of parent. The child inherits the parent's
// root buffer when it has one (local subtree); children of remote parents
// flush straight to t's sink. t may differ from the parent's tracer (a
// node handler span under a client's trace) and may be nil, in which case
// the child still records — into the parent's buffer — labeled with the
// parent's node only if set.
func (t *Tracer) startChild(ctx context.Context, parent *ActiveSpan, name string) (context.Context, *ActiveSpan) {
	var buf *traceBuf
	if !parent.remote {
		buf = parent.buf
	}
	if buf == nil && t.Sink() == nil {
		// Nowhere to record: keep the parent in ctx for propagation.
		return ctx, nil
	}
	sp := &ActiveSpan{
		t:       t,
		buf:     buf,
		sampled: parent.sampled,
		rec: Span{
			Trace:  parent.rec.Trace,
			ID:     id(),
			Parent: parent.rec.ID,
			Name:   name,
			Node:   t.Node(),
			Start:  time.Now().UnixNano(),
		},
	}
	return ContextWith(ctx, sp), sp
}

// Annotate appends key=value pairs to the span (values rendered with %v).
// Safe on nil and concurrently with other annotations.
func (s *ActiveSpan) Annotate(kv ...any) {
	if s == nil {
		return
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%v", kv[i], kv[i+1])
	}
	s.mu.Lock()
	if s.rec.Attrs == "" {
		s.rec.Attrs = b.String()
	} else {
		s.rec.Attrs += " " + b.String()
	}
	s.mu.Unlock()
}

// Duration returns the span's duration so far (zero on nil).
func (s *ActiveSpan) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - s.rec.Start)
}

// End completes the span. Children append to their root's buffer (or
// flush straight to the sink under a remote parent); the root then
// decides keep vs drop: head-sampled roots and roots at or above the slow
// threshold flush the whole buffered subtree. End is idempotent and
// nil-safe.
func (s *ActiveSpan) End() {
	if s == nil || s.remote || s.ended.Swap(true) {
		return
	}
	s.mu.Lock()
	s.rec.Dur = time.Now().UnixNano() - s.rec.Start
	rec := s.rec
	s.mu.Unlock()

	if s.buf == nil {
		s.t.Sink().put(rec)
		return
	}
	s.buf.mu.Lock()
	s.buf.spans = append(s.buf.spans, rec)
	s.buf.mu.Unlock()
	if !s.root {
		return
	}
	slow := false
	if thr := s.t.slowNS.Load(); thr > 0 && rec.Dur >= thr {
		slow = true
	}
	if !s.sampled && !slow {
		return // drop: fast and unsampled
	}
	sink := s.t.Sink()
	s.buf.mu.Lock()
	spans := s.buf.spans
	s.buf.spans = nil
	s.buf.mu.Unlock()
	for _, sp := range spans {
		sink.put(sp)
	}
	if slow && !s.sampled {
		if fn := s.t.slowHook(); fn != nil {
			fn(rec)
		}
	}
}

// EndErr annotates the span with a non-nil error, then ends it.
func (s *ActiveSpan) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.Annotate("err", err)
	}
	s.End()
}
