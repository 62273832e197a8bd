package alohadb

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"alohadb/internal/metrics"
	"alohadb/internal/trace"
)

// tracingPartitioner places "sN:*" keys on server N so the e2e test
// controls exactly which servers participate.
func tracingPartitioner(k Key, n int) int {
	if len(k) >= 2 && k[0] == 's' {
		return int(k[1]-'0') % n
	}
	return 0
}

// sumHandler reads its whole read set and stores the total.
func sumHandler(hc *HandlerContext) (*Resolution, error) {
	var total int64
	for _, r := range hc.Reads {
		if r.Found {
			n, _ := DecodeInt64(r.Value)
			total += n
		}
	}
	return ResolveValue(EncodeInt64(total)), nil
}

// findTxnTraces returns the captured traces whose root span is rootName.
func findTxnTraces(traces []TraceData, rootName string) []TraceData {
	var out []TraceData
	for _, tr := range traces {
		if r := tr.Root(); r != nil && r.Name == rootName {
			out = append(out, tr)
		}
	}
	return out
}

// TestDistributedTraceLifecycle is the end-to-end acceptance test: one
// multi-owner transaction on a three-server cluster must produce ONE trace
// containing the submit root, per-owner installs, the epoch-visibility
// wait, and at least one functor computation on a remote node.
func TestDistributedTraceLifecycle(t *testing.T) {
	db := openTestDB(t, Config{
		Servers:  3,
		Router:   NewStaticRouter(3, tracingPartitioner),
		Handlers: map[string]Handler{"sum": sumHandler},
		Preload: func(emit func(Pair) error) error {
			if err := emit(Pair{Key: "s1:a", Value: EncodeInt64(5)}); err != nil {
				return err
			}
			return emit(Pair{Key: "s2:b", Value: EncodeInt64(7)})
		},
		Trace: TraceConfig{SampleRate: 1},
	})
	ctx := context.Background()

	// One transaction touching all three partitions; the user functor on
	// server 0 reads keys owned by servers 1 and 2, forcing remote reads
	// during its computation.
	h, err := db.Submit(ctx, Txn{Writes: []Write{
		{Key: "s0:sum", Functor: User("sum", nil, []Key{"s1:a", "s2:b"})},
		{Key: "s1:x", Functor: Add(1)},
		{Key: "s2:y", Functor: Add(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Await in the background so the epoch-visibility wait actually blocks,
	// then drive the manual epochs forward to release it.
	done := make(chan error, 1)
	go func() {
		_, _, err := h.Await(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	advance(t, db)
	advance(t, db)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Await hung")
	}

	// The sum functor computed against the preloaded values.
	v, found, err := db.GetCommitted(ctx, "s0:sum")
	if err != nil || !found {
		t.Fatalf("read s0:sum: found=%v err=%v", found, err)
	}
	if n, _ := DecodeInt64(v); n != 12 {
		t.Errorf("s0:sum = %d, want 12", n)
	}

	txns := findTxnTraces(db.Traces(), "txn.submit")
	if len(txns) != 1 {
		t.Fatalf("found %d txn.submit traces, want exactly 1 (the lifecycle must be one connected trace)", len(txns))
	}
	tr := txns[0]

	nodes := map[int]bool{}
	spansByName := map[string][]SpanData{}
	for _, sd := range tr.Spans {
		nodes[sd.Node] = true
		spansByName[sd.Name] = append(spansByName[sd.Name], sd)
	}
	for node := 0; node < 3; node++ {
		if !nodes[node] {
			t.Errorf("trace has no span from server %d; nodes seen: %v", node, nodes)
		}
	}
	root := tr.Root()

	// Per-owner install fan-out: a client-side txn.install and a back-end
	// be.install per participating partition.
	if got := len(spansByName["txn.install"]); got != 3 {
		t.Errorf("txn.install spans = %d, want 3 (one per owner)", got)
	}
	installNodes := map[int]bool{}
	for _, sd := range spansByName["be.install"] {
		installNodes[sd.Node] = true
	}
	if len(installNodes) != 3 {
		t.Errorf("be.install nodes = %v, want all three partitions", installNodes)
	}
	// The visibility wait blocked (we awaited before advancing the epoch).
	if len(spansByName["txn.await"]) == 0 {
		t.Error("trace missing txn.await span")
	}
	if len(spansByName["visibility.wait"]) == 0 {
		t.Error("trace missing visibility.wait span (Await should have blocked)")
	}
	// At least one functor computed on a node other than the coordinator —
	// the remote computation of the lifecycle.
	remoteCompute := false
	for _, sd := range spansByName["functor.compute"] {
		if sd.Node != root.Node {
			remoteCompute = true
		}
	}
	if !remoteCompute {
		t.Errorf("no functor.compute span on a remote node (coordinator=%d, computes=%v)",
			root.Node, spansByName["functor.compute"])
	}
	// Every span belongs to the root's trace and (except the root) has a
	// parent within the trace or a parent that another span created.
	for _, sd := range tr.Spans {
		if sd.Trace != tr.ID {
			t.Errorf("span %s carries trace %x, want %x", sd.Name, sd.Trace, tr.ID)
		}
	}
}

// TestSlowTransactionCapture verifies the tail-latency policy end to end:
// with sampling off, a slow transaction is still captured.
func TestSlowTransactionCapture(t *testing.T) {
	db := openTestDB(t, Config{
		Servers: 2,
		Trace:   TraceConfig{SampleRate: 0, SlowThreshold: time.Microsecond},
	})
	ctx := context.Background()

	h, err := db.Submit(ctx, Txn{Writes: []Write{
		{Key: "a", Functor: Add(1)},
		{Key: "b", Functor: Add(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = h.Await(ctx)
	}()
	time.Sleep(2 * time.Millisecond)
	advance(t, db)
	advance(t, db)
	<-done

	if got := findTxnTraces(db.Traces(), "txn.submit"); len(got) != 0 {
		t.Errorf("unsampled transaction appeared in the recent ring (%d traces)", len(got))
	}
	slow := findTxnTraces(db.SlowTraces(), "txn.submit")
	if len(slow) == 0 {
		t.Fatal("slow transaction was not captured with sampling off")
	}
	r := slow[0].Root()
	if !r.Slow {
		t.Error("captured root not marked slow")
	}
}

// TestTracingDisabledByDefault pins the zero-config contract: no tracer,
// nil snapshots, 404 viewer.
func TestTracingDisabledByDefault(t *testing.T) {
	db := openTestDB(t, Config{})
	if tr := db.Cluster().Tracer(); tr != nil {
		t.Fatalf("zero Config built a tracer: %v", tr)
	}
	if got := db.Traces(); got != nil {
		t.Errorf("Traces() = %v, want nil", got)
	}
	if got := db.SlowTraces(); got != nil {
		t.Errorf("SlowTraces() = %v, want nil", got)
	}
	rec := httptest.NewRecorder()
	db.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 404 {
		t.Errorf("disabled trace viewer = %d, want 404", rec.Code)
	}
}

// TestTraceViewerThroughOps drives the full operator path: cluster with
// tracing on, OpsHandler with the trace viewer, JSON and Chrome exports.
func TestTraceViewerThroughOps(t *testing.T) {
	db := openTestDB(t, Config{
		Servers: 2,
		Trace:   TraceConfig{SampleRate: 1},
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		h, err := db.Submit(ctx, Txn{Writes: []Write{
			{Key: Key(fmt.Sprintf("a%d", i)), Functor: Add(1)},
			{Key: Key(fmt.Sprintf("b%d", i)), Functor: Add(1)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _, _ = h.Await(ctx)
		}()
		time.Sleep(time.Millisecond)
		advance(t, db)
		<-done
	}
	advance(t, db)

	ops := metrics.OpsHandler(func() []MetricFamily { return db.Metrics() }, nil, db.TraceHandler())

	rec := httptest.NewRecorder()
	ops.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/traces = %d", rec.Code)
	}
	var snap struct {
		Recent []struct {
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid /debug/traces JSON: %v", err)
	}
	found := false
	for _, tr := range snap.Recent {
		for _, sp := range tr.Spans {
			if sp.Name == "txn.submit" {
				found = true
			}
		}
	}
	if !found {
		t.Error("/debug/traces JSON has no txn.submit span")
	}

	rec = httptest.NewRecorder()
	ops.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/chrome", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/traces/chrome = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"traceEvents"`) {
		t.Error("chrome export missing traceEvents envelope")
	}

	// The tracer must not disturb the metrics surface.
	rec = httptest.NewRecorder()
	ops.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "aloha_") {
		t.Errorf("GET /metrics = %d", rec.Code)
	}
}

// TestTraceTextDump covers the aloha-bench -trace-slowest rendering on a
// real cluster's traces.
func TestTraceTextDump(t *testing.T) {
	db := openTestDB(t, Config{
		Servers: 2,
		Trace:   TraceConfig{SampleRate: 1},
	})
	ctx := context.Background()
	h, err := db.Submit(ctx, Txn{Writes: []Write{{Key: "k", Functor: Add(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = h.Await(ctx)
	}()
	time.Sleep(time.Millisecond)
	advance(t, db)
	<-done

	var sb strings.Builder
	if err := trace.WriteText(&sb, SlowestTraces(db.Traces(), 3)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "txn.submit") {
		t.Errorf("text dump missing txn.submit:\n%s", sb.String())
	}
}
