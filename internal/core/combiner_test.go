package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/transport"
)

// captureNetwork wraps another transport and counts outbound Call messages
// by concrete type, so tests can assert which wire messages the combiner
// actually sends. It can also hold Calls at the sender (hold), so a test
// can act while requests are in flight.
type captureNetwork struct {
	inner transport.Network

	mu    sync.Mutex
	calls map[string]int
	// fetchItems is the item count of every MsgFetch, in send order.
	fetchItems []int
	gate       chan struct{}
}

func newCaptureNetwork(inner transport.Network) *captureNetwork {
	return &captureNetwork{inner: inner, calls: make(map[string]int)}
}

func (n *captureNetwork) Node(id transport.NodeID, h transport.Handler) (transport.Conn, error) {
	c, err := n.inner.Node(id, h)
	if err != nil {
		return nil, err
	}
	return &captureConn{Conn: c, net: n}, nil
}

func (n *captureNetwork) Close() error { return n.inner.Close() }

// record counts req and returns the gate it must wait for, if any.
func (n *captureNetwork) record(req any) chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.calls[fmt.Sprintf("%T", req)]++
	if m, ok := req.(MsgFetch); ok {
		n.fetchItems = append(n.fetchItems, len(m.Reqs))
	}
	return n.gate
}

// count returns how many Calls carried the given message type.
func (n *captureNetwork) count(sample any) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.calls[fmt.Sprintf("%T", sample)]
}

// items returns the item count of every MsgFetch sent so far.
func (n *captureNetwork) items() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]int(nil), n.fetchItems...)
}

// hold makes every Call from now on wait at the sender until release runs.
func (n *captureNetwork) hold() (release func()) {
	gate := make(chan struct{})
	n.mu.Lock()
	n.gate = gate
	n.mu.Unlock()
	return func() {
		n.mu.Lock()
		n.gate = nil
		n.mu.Unlock()
		close(gate)
	}
}

type captureConn struct {
	transport.Conn
	net *captureNetwork
}

func (c *captureConn) Call(ctx context.Context, to transport.NodeID, req any) (any, error) {
	if gate := c.net.record(req); gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return c.Conn.Call(ctx, to, req)
}

// newCombinerCluster builds a two-server manual-epoch cluster over a
// capture network; keys starting with "a" live on server 0, everything
// else on server 1.
func newCombinerCluster(t *testing.T) (*Cluster, *captureNetwork) {
	t.Helper()
	capture := newCaptureNetwork(transport.NewMemNetwork())
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Registry:     testRegistry(t),
		Network:      capture,
		Router: placement.NewStatic(2, func(k kv.Key, n int) int {
			if len(k) > 0 && k[0] == 'a' {
				return 0
			}
			return 1
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); capture.inner.Close() })
	return c, capture
}

// parkOwner makes s's ops for owner queue up as if a former were busy with
// them; the returned start waits until want ops are queued and then runs a
// former over them, so they leave together whatever the scheduler does.
func parkOwner(t *testing.T, s *Server, owner int) (start func(want int)) {
	t.Helper()
	q := s.comb.queue(owner)
	q.mu.Lock()
	q.forming = true
	q.mu.Unlock()
	return func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			q.mu.Lock()
			n := len(q.ops)
			q.mu.Unlock()
			if n == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d ops queued for owner %d, want %d", n, owner, want)
			}
		}
		go s.comb.formLoop(owner, q)
	}
}

// TestCombinerIsolatedOpLeavesAtOnce proves an op that finds its owner idle
// leaves at once, as a one-item MsgFetch: there is one message shape and no
// linger, whatever the load.
func TestCombinerIsolatedOpLeavesAtOnce(t *testing.T) {
	c, capture := newCombinerCluster(t)
	if err := c.Load([]kv.Pair{{Key: "remote-key", Value: kv.Value("v")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Server(0).GetCommitted(context.Background(), "remote-key")
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("remote read = %q found=%v err=%v", v, found, err)
	}
	if got := capture.items(); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("MsgFetch item counts = %v, want one message of one item", got)
	}
	if st := c.Server(0).Stats(); st.ReadBatches != 1 || st.BatchedReads != 1 || st.EnsureBatches != 0 {
		t.Errorf("stats: %d reads in %d dispatches, %d ensure dispatches; want 1 in 1, 0",
			st.BatchedReads, st.ReadBatches, st.EnsureBatches)
	}
}

// TestCombinerOneFetchPerOwner proves a read and an ensure queued together
// for one owner leave as exactly one MsgFetch — there is no read/ensure
// split — and that each caller gets its own item's result.
func TestCombinerOneFetchPerOwner(t *testing.T) {
	c, capture := newCombinerCluster(t)
	if err := c.Load([]kv.Pair{{Key: "b-read", Value: kv.Value("r")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "b-det", Functor: functor.Value(kv.Value("d"))}}})
	mustAdvance(t, c)
	s := c.Server(0)
	start := parkOwner(t, s, 1)
	var (
		wg         sync.WaitGroup
		read       funcRead
		res        *functor.Resolution
		rerr, eerr error
	)
	wg.Add(2)
	go func() { defer wg.Done(); read, rerr = s.comb.read(ctx, 1, "b-read", s.VisibleBound().Prev()) }()
	go func() { defer wg.Done(); res, eerr = s.comb.ensure(ctx, 1, "b-det", h.Version()) }()
	start(2)
	wg.Wait()
	if rerr != nil || !read.Found || string(read.Value) != "r" {
		t.Errorf("read b-read = %q found=%v err=%v", read.Value, read.Found, rerr)
	}
	if eerr != nil || res == nil || res.Kind != functor.Resolved {
		t.Errorf("ensure b-det = %+v err=%v, want a resolved record", res, eerr)
	}
	if got := capture.items(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("MsgFetch item counts = %v, want one message carrying both", got)
	}
	if st := s.Stats(); st.ReadBatches != 1 || st.BatchedReads != 1 || st.EnsureBatches != 1 {
		t.Errorf("stats: %d reads in %d dispatches, %d ensure dispatches; want 1 in 1, 1",
			st.BatchedReads, st.ReadBatches, st.EnsureBatches)
	}
}

// TestCombinerBatchesConcurrentReads proves remote reads queued while the
// owner's former is busy share one RPC, and that the combiner stats account
// for every read exactly once.
func TestCombinerBatchesConcurrentReads(t *testing.T) {
	c, capture := newCombinerCluster(t)
	const n = 32
	pairs := make([]kv.Pair, n)
	for i := range pairs {
		pairs[i] = kv.Pair{Key: kv.Key(fmt.Sprintf("rk%02d", i)), Value: kv.Value("v")}
	}
	if err := c.Load(pairs); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	start := parkOwner(t, c.Server(0), 1)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, found, err := c.Server(0).GetCommitted(context.Background(), pairs[i].Key)
			if err == nil && !found {
				err = fmt.Errorf("key %q not found", pairs[i].Key)
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	start(n)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := capture.items(); !reflect.DeepEqual(got, []int{n}) {
		t.Errorf("MsgFetch item counts = %v, want one message of %d", got, n)
	}
	st := c.Server(0).Stats()
	if st.BatchedReads != n || st.ReadBatches != 1 {
		t.Errorf("stats: %d reads in %d dispatches, want %d in 1", st.BatchedReads, st.ReadBatches, n)
	}
}

// TestCombinerAbortBatch proves the coordinator's second round merges all
// failed transactions' aborts toward one owner into a single MsgAbortBatch,
// and that the batched aborts still roll the installs back.
func TestCombinerAbortBatch(t *testing.T) {
	c, capture := newCombinerCluster(t)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Every transaction requires a missing key, so all fail the first
	// round; each installed a write on server 1 that round two must abort.
	txns := []Txn{
		{Writes: []Write{{Key: "b1", Functor: functor.Value(kv.Value("1"))}}, Requires: []kv.Key{"a-nope"}},
		{Writes: []Write{{Key: "b2", Functor: functor.Value(kv.Value("2"))}}, Requires: []kv.Key{"a-nope"}},
		{Writes: []Write{{Key: "b3", Functor: functor.Value(kv.Value("3"))}}, Requires: []kv.Key{"a-nope"}},
	}
	results, _, err := c.Server(0).SubmitBatch(context.Background(), txns)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Aborted {
			t.Fatalf("txn %d did not abort: %+v", i, r)
		}
	}
	if got := capture.count(MsgAbortBatch{}); got != 1 {
		t.Errorf("MsgAbortBatch calls = %d, want 1", got)
	}
	mustAdvance(t, c)
	ctx := context.Background()
	for _, k := range []kv.Key{"b1", "b2", "b3"} {
		if _, found, _ := c.Server(0).GetCommitted(ctx, k); found {
			t.Errorf("aborted write %q visible", k)
		}
	}
}

// TestCombinerLoneAbortIsBatch proves one failed transaction's rollback
// travels as a one-item MsgAbortBatch — aborts have one message shape too —
// and still rolls the install back.
func TestCombinerLoneAbortIsBatch(t *testing.T) {
	c, capture := newCombinerCluster(t)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	results, _, err := c.Server(0).SubmitBatch(context.Background(), []Txn{{
		Writes:   []Write{{Key: "b-only", Functor: functor.Value(kv.Value("1"))}},
		Requires: []kv.Key{"a-nope"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Aborted {
		t.Fatal("transaction with missing requirement did not abort")
	}
	if got := capture.count(MsgAbortBatch{}); got != 1 {
		t.Errorf("MsgAbortBatch calls = %d, want 1 for a lone abort", got)
	}
	mustAdvance(t, c)
	if _, found, _ := c.Server(0).GetCommitted(context.Background(), "b-only"); found {
		t.Error("aborted write \"b-only\" visible")
	}
}

// TestCombinerCancellationReleasesCaller proves a caller whose context is
// cancelled while its op is in flight gets released immediately with
// context.Canceled, while the shared dispatch proceeds and the other
// waiters still get their values.
func TestCombinerCancellationReleasesCaller(t *testing.T) {
	const window = 60 * time.Millisecond
	c, capture := newCombinerCluster(t)
	if err := c.Load([]kv.Pair{
		{Key: "b-warm", Value: kv.Value("w")},
		{Key: "b-canceled", Value: kv.Value("x")},
		{Key: "b-patient", Value: kv.Value("y")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := c.Server(0).GetCommitted(ctx, "b-warm"); err != nil {
		t.Fatalf("warm read: %v", err)
	}
	// From here every fetch waits at the sender until released.
	release := capture.hold()

	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	aDone := make(chan error, 1)
	go func() {
		_, _, err := c.Server(0).GetCommitted(actx, "b-canceled")
		aDone <- err
	}()
	bDone := make(chan error, 1)
	go func() {
		v, found, err := c.Server(0).GetCommitted(ctx, "b-patient")
		if err == nil && (!found || string(v) != "y") {
			err = fmt.Errorf("b-patient = %q found=%v", v, found)
		}
		bDone <- err
	}()

	// Cancel A while both ops are still in flight; A must return at once,
	// without waiting for the held dispatch.
	time.Sleep(5 * time.Millisecond)
	cancelAt := time.Now()
	acancel()
	select {
	case err := <-aDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled read returned %v, want context.Canceled", err)
		}
		if waited := time.Since(cancelAt); waited > window/2 {
			t.Errorf("cancelled caller released after %v; cancellation should not wait out the window", waited)
		}
	case <-time.After(window / 2):
		t.Error("cancelled caller still blocked at half the batching window")
	}
	// B rides its dispatch out normally.
	release()
	select {
	case err := <-bDone:
		if err != nil {
			t.Errorf("co-batched read failed after peer cancellation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("co-batched read never completed")
	}
}

// TestFetchForwardChecksReplyType: an owner that answers a forwarded fetch
// with a message of the wrong type fails that item with an error naming
// what came back — no panic in the handler — and the other items of the
// same MsgFetch are served as usual.
func TestFetchForwardChecksReplyType(t *testing.T) {
	c, capture := newCombinerCluster(t)
	if err := c.Load([]kv.Pair{{Key: "a-local", Value: kv.Value("l")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Replace server 1 on the mesh by a node that answers anything with a
	// client-protocol reply.
	if err := c.Server(1).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := capture.inner.Node(1, func(context.Context, transport.NodeID, any) (any, error) {
		return MsgClientGetResp{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	v := s.VisibleBound().Prev()
	resp, err := s.handleFetch(context.Background(), MsgFetch{Reqs: []FetchReq{
		{Kind: FetchRead, Key: "b-moved", Version: v},
		{Kind: FetchRead, Key: "a-local", Version: v},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[0].Err; !strings.Contains(got, "MsgClientGetResp") {
		t.Errorf("forwarded item: Err = %q, want an error naming the reply type", got)
	}
	if r := resp.Results[1]; r.Err != "" || !r.Found || string(r.Value) != "l" {
		t.Errorf("local item = %+v, want \"l\" found", r)
	}
}

// TestWaitComputedForwardChecksReplyType: a wait on a record whose key
// moved is forwarded to the owner; an owner answering with the wrong
// message type yields an error naming that type, not a panic.
func TestWaitComputedForwardChecksReplyType(t *testing.T) {
	c, capture := newCombinerCluster(t)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Server(1).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := capture.inner.Node(1, func(context.Context, transport.NodeID, any) (any, error) {
		return MsgClientGetResp{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	_, err := s.handleWaitComputed(context.Background(), MsgWaitComputed{Key: "b-moved", Version: s.VisibleBound().Prev()})
	if err == nil || !strings.Contains(err.Error(), "MsgClientGetResp") {
		t.Errorf("err = %v, want an error naming the reply type", err)
	}
}
