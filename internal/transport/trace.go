package transport

import (
	"context"

	"github.com/defragdht/d2/internal/obs/tracing"
)

// rpcSpanNames maps a wire type to its client-side send span name,
// precomputed so the traced path never concatenates strings per call.
var rpcSpanNames = spanNames("rpc.")

// serveSpanNames maps a wire type to its server-side handler span name.
var serveSpanNames = spanNames("serve.")

func spanNames(prefix string) (out [numWireTypes]string) {
	for t, name := range rpcNames {
		out[t] = prefix + name
	}
	return out
}

// RPCName returns the wire name of a message's kind ("get", "multi_get",
// ...), for span and profiler-label naming at higher layers. The string is
// precomputed — callers on traced paths pay no per-call concatenation.
func RPCName(m Message) string { return rpcNames[m.wireType()] }

// ServeSpanName returns the precomputed server-side span name for a
// request ("serve.get", ...).
func ServeSpanName(m Message) string { return serveSpanNames[m.wireType()] }

// startSend opens the transport's client-side span for one outbound RPC:
// a child of whatever trace ctx carries, named rpc.<kind>. It returns the
// context to dispatch with (carrying the send span, so the remote handler
// parents to it) and the span; both pass through untouched when the call
// is untraced. A nil tracer still propagates the caller's trace position —
// the remote spans then parent to the caller's span directly.
func startSend(ctx context.Context, tr *tracing.Tracer, to Addr, req Message) (context.Context, *tracing.ActiveSpan) {
	if tracing.FromContext(ctx) == nil {
		return ctx, nil
	}
	sctx, sp := tr.StartSpan(ctx, rpcSpanNames[req.wireType()])
	sp.Annotate("to", to)
	return sctx, sp
}

// finishSend completes a send span with the call outcome.
func finishSend(sp *tracing.ActiveSpan, err error) {
	if sp == nil {
		return
	}
	sp.EndErr(err)
}
