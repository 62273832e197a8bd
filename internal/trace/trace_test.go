package trace

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestDisabledTracerIsNil(t *testing.T) {
	if tr := New(Config{}); tr != nil {
		t.Fatalf("New(zero Config) = %v, want nil", tr)
	}
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	nt := tr.ForNode(3)
	if nt != nil {
		t.Fatalf("nil.ForNode = %v, want nil", nt)
	}
	ctx, span := nt.StartRoot(context.Background(), "x")
	if span != nil {
		t.Error("nil node tracer started a span")
	}
	if _, s := nt.Start(ctx, "y"); s != nil {
		t.Error("nil node tracer started a child span")
	}
	span.SetAttr("k", "v") // must not panic
	span.SetAttrInt("n", 1)
	span.SetAttrDuration("d", time.Second)
	span.End()
	if sc := span.Context(); sc.Valid() {
		t.Error("nil span has a valid context")
	}
}

// TestDisabledPathAllocs is the benchmark guard for design constraint 1:
// with no tracer configured, the per-span hot path performs zero
// allocations.
func TestDisabledPathAllocs(t *testing.T) {
	var nt *NodeTracer
	base := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		ctx, span := nt.StartRoot(base, "txn.submit")
		_, child := nt.Start(ctx, "txn.install")
		child.SetAttr("k", "v")
		child.SetAttrInt("txns", 123456)
		child.SetAttrDuration("wait", 1234567*time.Microsecond)
		child.End()
		span.End()
		_ = Detach(base, ctx)
		_ = ContextWith(ctx, SpanContext{})
		_ = FromContext(ctx)
	}); n != 0 {
		t.Fatalf("disabled tracing path allocates %v objects per span, want 0", n)
	}
}

// BenchmarkDisabledSpan is the allocation guard in benchmark form
// (run with -benchmem; the CI workflow asserts 0 allocs/op).
func BenchmarkDisabledSpan(b *testing.B) {
	var nt *NodeTracer
	base := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, span := nt.StartRoot(base, "txn.submit")
		_, child := nt.Start(ctx, "functor.compute")
		child.End()
		span.End()
		_ = Detach(base, ctx)
	}
}

func TestSamplingAlwaysAndNever(t *testing.T) {
	always := New(Config{SampleRate: 1}).ForNode(0)
	for i := 0; i < 50; i++ {
		ctx, span := always.StartRoot(context.Background(), "r")
		if span == nil || !span.Context().Sampled {
			t.Fatal("SampleRate 1 dropped a root")
		}
		if !FromContext(ctx).Valid() {
			t.Fatal("sampled root did not store its context")
		}
		span.End()
	}

	// SampleRate 0 with no slow threshold records nothing at all.
	neverTracer := New(Config{SampleRate: 0, SlowThreshold: time.Hour})
	never := neverTracer.ForNode(0)
	for i := 0; i < 50; i++ {
		ctx, span := never.StartRoot(context.Background(), "r")
		if span == nil {
			t.Fatal("slow-capture mode must still time unsampled roots")
		}
		if span.Context().Sampled {
			t.Fatal("SampleRate 0 sampled a root")
		}
		if FromContext(ctx).Valid() {
			t.Fatal("unsampled root propagated its context")
		}
		span.End()
	}
	if got := neverTracer.Traces(); len(got) != 0 {
		t.Fatalf("unsampled fast roots recorded %d traces", len(got))
	}
}

func TestChildParenting(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	nt := tr.ForNode(1)
	ctx, root := nt.StartRoot(context.Background(), "root")
	cctx, child := nt.Start(ctx, "child")
	_, grand := tr.ForNode(2).Start(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range spans {
		byName[sd.Name] = sd
	}
	if byName["child"].Parent != byName["root"].Span {
		t.Error("child not parented to root")
	}
	if byName["grandchild"].Parent != byName["child"].Span {
		t.Error("grandchild not parented to child")
	}
	if byName["grandchild"].Node != 2 {
		t.Errorf("grandchild node = %d, want 2", byName["grandchild"].Node)
	}
	if r := traces[0].Root(); r == nil || r.Name != "root" {
		t.Errorf("Root() = %v", r)
	}
}

func TestStartAtReattaches(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	nt := tr.ForNode(0)
	_, root := nt.StartRoot(context.Background(), "root")
	sc := root.Context()
	root.End() // parent already ended, as in the processor queue

	_, late := nt.StartAt(context.Background(), sc, "async")
	late.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1 (StartAt split the trace)", len(traces))
	}
	byName := map[string]SpanData{}
	for _, sd := range traces[0].Spans {
		byName[sd.Name] = sd
	}
	if byName["async"].Parent != byName["root"].Span {
		t.Error("StartAt span not parented to the handed-off context")
	}
}

func TestSlowCapture(t *testing.T) {
	// The threshold leaves the fast root below room for a preempted
	// goroutine: at a microsecond it was captured as slow on a busy box.
	tr := New(Config{SampleRate: 0, SlowThreshold: 2 * time.Millisecond})
	nt := tr.ForNode(0)
	_, span := nt.StartRoot(context.Background(), "slow-root")
	time.Sleep(5 * time.Millisecond)
	span.End()

	if got := tr.Traces(); len(got) != 0 {
		t.Fatalf("unsampled slow root leaked into the recent ring (%d traces)", len(got))
	}
	slow := tr.SlowTraces()
	if len(slow) != 1 {
		t.Fatalf("got %d slow traces, want 1", len(slow))
	}
	if r := slow[0].Root(); r == nil || !r.Slow || r.Name != "slow-root" {
		t.Fatalf("slow root = %+v", slow[0].Root())
	}
	if !slow[0].Slow() {
		t.Error("Trace.Slow() = false")
	}

	// A fast root under the same policy is not captured.
	_, fast := nt.StartRoot(context.Background(), "fast-root")
	fast.End()
	if got := tr.SlowTraces(); len(got) != 1 {
		t.Fatalf("fast root captured as slow (%d slow traces)", len(got))
	}
}

func TestSlowCaptureJoinsSampledChildren(t *testing.T) {
	tr := New(Config{SampleRate: 1, SlowThreshold: time.Microsecond})
	nt := tr.ForNode(0)
	ctx, root := nt.StartRoot(context.Background(), "root")
	_, child := nt.Start(ctx, "child")
	child.End()
	time.Sleep(2 * time.Millisecond)
	root.End()

	slow := tr.SlowTraces()
	if len(slow) != 1 {
		t.Fatalf("got %d slow traces, want 1", len(slow))
	}
	names := map[string]bool{}
	for _, sd := range slow[0].Spans {
		names[sd.Name] = true
	}
	if !names["root"] || !names["child"] {
		t.Fatalf("slow trace spans = %v, want root+child", names)
	}
}

func TestRingWrap(t *testing.T) {
	tr := newTracer(Config{SampleRate: 1}, 8)
	nt := tr.ForNode(0)
	for i := 0; i < 20; i++ {
		_, span := nt.StartRoot(context.Background(), "r")
		span.End()
	}
	total := 0
	for _, trc := range tr.Traces() {
		total += len(trc.Spans)
	}
	if total != 8 {
		t.Errorf("retained %d spans, want ring size 8", total)
	}
	if d := tr.Dropped(); d != 12 {
		t.Errorf("Dropped() = %d, want 12", d)
	}
}

func TestSlowestOrdersByDuration(t *testing.T) {
	traces := []Trace{
		{ID: 1, Spans: []SpanData{{Trace: 1, Span: 1, Name: "a", Dur: 10}}},
		{ID: 2, Spans: []SpanData{{Trace: 2, Span: 2, Name: "b", Dur: 30}}},
		{ID: 3, Spans: []SpanData{{Trace: 3, Span: 3, Name: "c", Dur: 20}}},
	}
	top := Slowest(traces, 2)
	if len(top) != 2 || top[0].ID != 2 || top[1].ID != 3 {
		t.Errorf("Slowest = %v", top)
	}
	if traces[0].ID != 1 {
		t.Error("Slowest mutated its input")
	}
}

func TestWriteTextTree(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	nt := tr.ForNode(0)
	ctx, root := nt.StartRoot(context.Background(), "txn.submit")
	_, child := nt.Start(ctx, "txn.install")
	child.SetAttrInt("owner", 1)
	child.SetAttrDuration("wait", 1500*time.Microsecond)
	child.End()
	root.End()
	var sb strings.Builder
	if err := WriteText(&sb, tr.Traces()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"root=txn.submit", "txn.install", "owner=1", "wait=1.5ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}
