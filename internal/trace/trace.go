// Package trace is a zero-dependency distributed tracer for ALOHA-DB's
// per-transaction lifecycle. Aggregate histograms (internal/metrics) answer
// "how fast is each stage on average"; this package answers "where did THIS
// transaction's time go" — across the coordinator fan-out, per-partition
// installs, the epoch-visibility wait, and the asynchronous, recursive,
// possibly remote functor computations of §IV of the paper.
//
// Design constraints, in order:
//
//  1. Disabled tracing is free: every entry point is nil-receiver safe and
//     allocates nothing when no tracer is configured (guarded by
//     TestDisabledPathAllocs).
//  2. Head-based sampling: the sample/drop decision is made once, at the
//     root span, and travels with the trace context so every server keeps
//     or drops the same transaction.
//  3. Slow-transaction capture: a root span whose duration exceeds the
//     configured threshold is always recorded to a dedicated ring — even
//     when the head-based sampler dropped the trace — so tail-latency
//     outliers are never lost to sampling. (For unsampled traces only the
//     root is available; its children were never recorded anywhere.)
//  4. Lock-cheap sinks: completed spans land in a fixed-size ring
//     (internal/ring) under the lock of the one slot they are copied into;
//     recording never allocates after the span itself.
//
// Trace context crosses nodes through transport.Conn: the in-memory mesh
// carries it as a context.Context value, the TCP mesh as a flag-gated
// field of the wire envelope. Handlers receive it in their context and
// continue the trace with Start.
package trace

import (
	"context"
	"math"
	"math/rand/v2"
	"strconv"
	"time"

	"alohadb/internal/ring"
)

// TraceID identifies one distributed trace (one transaction lifecycle).
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// SpanContext is the propagated trace envelope: which trace, which parent
// span, and whether the head-based sampler kept the trace. The zero value
// means "no trace".
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether sc carries a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// ctxKey carries a SpanContext through a context.Context.
type ctxKey struct{}

// ContextWith returns ctx carrying sc. Invalid or unsampled contexts are
// not stored: children of a dropped trace record nothing, so propagating
// them would be pure overhead.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() || !sc.Sampled {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the span context from ctx (zero value if none).
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}

// Detach returns a context that carries ctx's trace context but none of
// its cancellation or other values — the right base for one-way message
// delivery and engine-internal work that must outlive the caller. When ctx
// carries no trace the untouched base is returned (no allocation).
func Detach(base, ctx context.Context) context.Context {
	sc := FromContext(ctx)
	if !sc.Valid() {
		return base
	}
	return context.WithValue(base, ctxKey{}, sc)
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is one completed span as stored in the rings and returned by
// snapshots. Start is wall-clock Unix nanoseconds; Dur is measured on the
// monotonic clock.
type SpanData struct {
	Trace  TraceID
	Span   SpanID
	Parent SpanID // zero for root spans
	Name   string
	Node   int // server/node that produced the span (-1 if unattributed)
	Start  int64
	Dur    int64
	Attrs  []Attr
	Slow   bool // captured by the slow-transaction policy
}

// End returns the span's end time in Unix nanoseconds.
func (sd SpanData) End() int64 { return sd.Start + sd.Dur }

// Config tunes a Tracer.
type Config struct {
	// SampleRate is the head-based sampling probability in [0, 1]. Zero
	// records no trace except those captured by SlowThreshold.
	SampleRate float64
	// SlowThreshold, when positive, always captures traces whose root span
	// lasts at least this long, sampled or not.
	SlowThreshold time.Duration
}

// Enabled reports whether the configuration asks for any tracing at all.
func (c Config) Enabled() bool { return c.SampleRate > 0 || c.SlowThreshold > 0 }

// ringSize is the recent-span ring capacity; the slow ring is a quarter of
// it.
const ringSize = 4096

// Tracer owns the sampling decision and the span sinks. A nil *Tracer is a
// valid, fully disabled tracer.
type Tracer struct {
	sampleBound uint64 // sampled iff rand.Uint64() < sampleBound
	slowNanos   int64
	recent      *ring.Ring[SpanData]
	slow        *ring.Ring[SpanData]
}

// New returns a tracer for cfg, or nil when cfg disables tracing — callers
// can wire the result unconditionally.
func New(cfg Config) *Tracer {
	if !cfg.Enabled() {
		return nil
	}
	t := &Tracer{
		slowNanos: int64(cfg.SlowThreshold),
		recent:    ring.New[SpanData](ringSize, nil),
		slow:      ring.New[SpanData](ringSize/4, nil),
	}
	switch {
	case cfg.SampleRate >= 1:
		t.sampleBound = math.MaxUint64
	case cfg.SampleRate <= 0:
		t.sampleBound = 0
	default:
		t.sampleBound = uint64(cfg.SampleRate * float64(math.MaxUint64))
	}
	return t
}

// ForNode returns a node-scoped handle that stamps every span it starts
// with the node ID. Nil-safe: a nil tracer yields a nil handle, and a nil
// handle starts no spans.
func (t *Tracer) ForNode(node int) *NodeTracer {
	if t == nil {
		return nil
	}
	return &NodeTracer{t: t, node: node}
}

// nonzero64 draws a random nonzero 64-bit ID.
func nonzero64() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// NodeTracer is a Tracer bound to one node ID. All span-starting entry
// points live here so every span is attributed to the server (or epoch
// manager) that produced it.
type NodeTracer struct {
	t    *Tracer
	node int
}

// Tracer returns the underlying tracer (nil for a nil handle).
func (nt *NodeTracer) Tracer() *Tracer {
	if nt == nil {
		return nil
	}
	return nt.t
}

// StartRoot begins a new trace. The head-based sampling decision is made
// here: sampled roots store their context in the returned ctx so children
// (local and remote) attach to the trace; unsampled roots are still timed
// so the slow-capture policy can keep them, but propagate nothing. Returns
// (ctx, nil) when tracing is disabled.
func (nt *NodeTracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if nt == nil {
		return ctx, nil
	}
	t := nt.t
	sampled := rand.Uint64() < t.sampleBound
	if !sampled && t.slowNanos == 0 {
		return ctx, nil
	}
	s := &Span{
		t:       t,
		sampled: sampled,
		start:   time.Now(),
		data: SpanData{
			Trace: TraceID(nonzero64()),
			Span:  SpanID(nonzero64()),
			Name:  name,
			Node:  nt.node,
		},
	}
	if sampled {
		ctx = ContextWith(ctx, s.Context())
	}
	return ctx, s
}

// Start begins a child span of the trace carried by ctx, if any. Returns
// (ctx, nil) — recording nothing — when tracing is disabled or ctx carries
// no sampled trace, which makes call sites unconditional.
func (nt *NodeTracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if nt == nil {
		return ctx, nil
	}
	sc := FromContext(ctx)
	if !sc.Valid() || !sc.Sampled {
		return ctx, nil
	}
	s := &Span{
		t:       nt.t,
		sampled: true,
		start:   time.Now(),
		data: SpanData{
			Trace:  sc.Trace,
			Span:   SpanID(nonzero64()),
			Parent: sc.Span,
			Name:   name,
			Node:   nt.node,
		},
	}
	return ContextWith(ctx, s.Context()), s
}

// StartAt begins a child span under an explicit parent context rather than
// a context.Context — the shape needed when the parent crossed an
// asynchronous boundary as plain data (e.g. a functor's install span
// buffered in the processor queue until its epoch commits). The returned
// context carries the new span for further nesting.
func (nt *NodeTracer) StartAt(base context.Context, sc SpanContext, name string) (context.Context, *Span) {
	if nt == nil || !sc.Valid() || !sc.Sampled {
		return base, nil
	}
	return nt.Start(ContextWith(base, sc), name)
}

// Span is one in-flight span. A nil *Span is valid and ignores all calls,
// so instrumentation sites need no enabled-checks.
type Span struct {
	t       *Tracer
	sampled bool
	start   time.Time
	data    SpanData
}

// Context returns the span's propagation context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.data.Trace, Span: s.data.Span, Sampled: s.sampled}
}

// SetAttr annotates the span. Call only from the goroutine that owns the
// span, before End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt is SetAttr for a number, formatted only when the span records:
// on the disabled path the call costs a nil check, not a string.
func (s *Span) SetAttrInt(key string, value int64) {
	if s != nil {
		s.SetAttr(key, strconv.FormatInt(value, 10))
	}
}

// SetAttrDuration is SetAttr for a duration, formatted only when the span
// records.
func (s *Span) SetAttrDuration(key string, value time.Duration) {
	if s != nil {
		s.SetAttr(key, value.String())
	}
}

// End completes the span and hands it to the sinks: sampled spans go to
// the recent ring; root spans that crossed the slow threshold additionally
// go to the slow ring (this is what preserves unsampled outliers).
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.data.Start = s.start.UnixNano()
	s.data.Dur = int64(d)
	if s.sampled {
		s.t.recent.Add(s.data)
	}
	if s.data.Parent == 0 && s.t.slowNanos > 0 && int64(d) >= s.t.slowNanos {
		sd := s.data
		sd.Slow = true
		s.t.slow.Add(sd)
	}
}
