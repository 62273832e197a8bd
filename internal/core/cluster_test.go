package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/tstamp"
)

// testRegistry builds the handlers the tests share.
func testRegistry(t *testing.T) *functor.Registry {
	t.Helper()
	r := functor.NewRegistry()
	// xfer-out debits the amount from its own key, aborting when the
	// source balance (which is its own key) is insufficient.
	r.MustRegister("xfer-out", func(ctx *functor.Context) (*functor.Resolution, error) {
		amt, _ := kv.DecodeInt64(ctx.Arg)
		bal := int64(0)
		if r := ctx.Reads[ctx.Key]; r.Found {
			bal, _ = kv.DecodeInt64(r.Value)
		}
		if bal < amt {
			return functor.AbortResolution("insufficient funds"), nil
		}
		return functor.ValueResolution(kv.EncodeInt64(bal - amt)), nil
	})
	// xfer-in credits the amount to its own key; its read set contains the
	// source key so it reaches the same abort decision as xfer-out.
	r.MustRegister("xfer-in", func(ctx *functor.Context) (*functor.Resolution, error) {
		arg := string(ctx.Arg) // "src|amount"
		parts := strings.SplitN(arg, "|", 2)
		src := kv.Key(parts[0])
		amt, _ := kv.DecodeInt64([]byte(parts[1]))
		srcBal := int64(0)
		if r := ctx.Reads[src]; r.Found {
			srcBal, _ = kv.DecodeInt64(r.Value)
		}
		if srcBal < amt {
			return functor.AbortResolution("insufficient funds"), nil
		}
		bal := int64(0)
		if r := ctx.Reads[ctx.Key]; r.Found {
			bal, _ = kv.DecodeInt64(r.Value)
		}
		return functor.ValueResolution(kv.EncodeInt64(bal + amt)), nil
	})
	// append concatenates its argument to the previous value; it is
	// intentionally non-commutative so serializability violations surface.
	r.MustRegister("append", func(ctx *functor.Context) (*functor.Resolution, error) {
		var prev []byte
		if r := ctx.Reads[ctx.Key]; r.Found {
			prev = r.Value
		}
		out := make([]byte, 0, len(prev)+len(ctx.Arg))
		out = append(out, prev...)
		out = append(out, ctx.Arg...)
		return functor.ValueResolution(out), nil
	})
	return r
}

// xferInArg encodes the xfer-in argument.
func xferInArg(src kv.Key, amt int64) []byte {
	return []byte(string(src) + "|" + string(kv.EncodeInt64(amt)))
}

// LoadFunctor bulk-inserts one arbitrary functor at epoch 0, as Load does a
// value: tests pre-seed non-VALUE states with it.
func (c *Cluster) LoadFunctor(k kv.Key, fn *functor.Functor) error {
	if c.started {
		return fmt.Errorf("core: Load after Start")
	}
	return c.loadOne(k, fn.Type, fn.Arg, fn)
}

// newTestCluster builds a manual-epoch cluster.
func newTestCluster(t *testing.T, servers, workers int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Servers:      servers,
		ManualEpochs: true,
		Registry:     testRegistry(t),
		Workers:      workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustAdvance(t *testing.T, c *Cluster) {
	t.Helper()
	if _, err := c.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
}

func mustSubmit(t *testing.T, c *Cluster, fe int, txn Txn) *TxnHandle {
	t.Helper()
	h, err := c.Server(fe).Submit(context.Background(), txn)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func readInt(t *testing.T, c *Cluster, fe int, key kv.Key) (int64, bool) {
	t.Helper()
	v, found, err := c.Server(fe).GetCommitted(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		return 0, false
	}
	n, ok := kv.DecodeInt64(v)
	if !ok {
		t.Fatalf("value for %q is not an int64", key)
	}
	return n, true
}

func TestSingleServerPutGet(t *testing.T) {
	c := newTestCluster(t, 1, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "k", Functor: functor.Value(kv.Value("hello"))}}})
	if aborted, _ := h.Installed(); aborted {
		t.Fatal("install aborted")
	}
	mustAdvance(t, c)
	v, found, err := c.Server(0).GetCommitted(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "hello" {
		t.Errorf("GetCommitted = %q found=%v", v, found)
	}
}

func TestLoadVisibleFromEpochOne(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	if err := c.Load([]kv.Pair{{Key: "a", Value: kv.EncodeInt64(100)}, {Key: "b", Value: kv.EncodeInt64(200)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if n, ok := readInt(t, c, 0, "a"); !ok || n != 100 {
		t.Errorf("a = %d ok=%v, want 100", n, ok)
	}
	if n, ok := readInt(t, c, 1, "b"); !ok || n != 200 {
		t.Errorf("b = %d ok=%v, want 200", n, ok)
	}
}

func TestArithmeticFunctorChain(t *testing.T) {
	c := newTestCluster(t, 1, 0)
	if err := c.Load([]kv.Pair{{Key: "ctr", Value: kv.EncodeInt64(10)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "ctr", Functor: functor.Add(3)}}})
	}
	mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "ctr", Functor: functor.Sub(5)}}})
	mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "ctr", Functor: functor.Max(100)}}})
	mustAdvance(t, c)
	if n, ok := readInt(t, c, 0, "ctr"); !ok || n != 100 {
		t.Errorf("ctr = %d ok=%v, want 100 (10+15-5 then MAX 100)", n, ok)
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	c := newTestCluster(t, 1, 0)
	if err := c.Load([]kv.Pair{{Key: "k", Value: kv.Value("v1")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "k", Functor: functor.Deleted()}}})
	mustAdvance(t, c)
	if _, found, err := c.Server(0).GetCommitted(context.Background(), "k"); err != nil || found {
		t.Errorf("deleted key found=%v err=%v", found, err)
	}
	mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "k", Functor: functor.Value(kv.Value("v2"))}}})
	mustAdvance(t, c)
	v, found, err := c.Server(0).GetCommitted(context.Background(), "k")
	if err != nil || !found || string(v) != "v2" {
		t.Errorf("reinserted key = %q found=%v err=%v", v, found, err)
	}
}

// TestFigure5 reproduces the paper's Figure 5 scenario over two accounts on
// two partitions: T1 multi-writes $150 to A and $100 to B; T2 transfers
// $100 from A to B; T3 transfers $100 from A to B only if the remaining
// balance is non-negative, which fails and aborts on both keys.
func TestFigure5(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Registry:     testRegistry(t),
		Router: placement.NewStatic(2, func(k kv.Key, n int) int {
			if k == "A" {
				return 0
			}
			return 1
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// T1: multi-write.
	h1 := mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "A", Functor: functor.Value(kv.EncodeInt64(150))},
		{Key: "B", Functor: functor.Value(kv.EncodeInt64(100))},
	}})
	// T2: unconditional transfer, expressed as SUB/ADD functors exactly as
	// in the figure ("readset is the key itself, local read").
	h2 := mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "A", Functor: functor.Sub(100)},
		{Key: "B", Functor: functor.Add(100)},
	}})
	// T3: conditional transfer; the functor on B reads A remotely, with A
	// in B's recipient set via the functor on A.
	h3 := mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "A", Functor: &functor.Functor{
			Type:       functor.TypeUser,
			Handler:    "xfer-out",
			Arg:        kv.EncodeInt64(100),
			Recipients: []kv.Key{"B"},
		}},
		{Key: "B", Functor: functor.User("xfer-in", xferInArg("A", 100), []kv.Key{"A"})},
	}})
	mustAdvance(t, c)

	ctx := context.Background()
	for i, h := range []*TxnHandle{h1, h2} {
		committed, reason, err := h.Await(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !committed {
			t.Errorf("T%d aborted: %s", i+1, reason)
		}
	}
	committed, reason, err := h3.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Error("T3 should abort (remaining balance would be negative)")
	}
	if !strings.Contains(reason, "insufficient funds") {
		t.Errorf("T3 abort reason = %q", reason)
	}

	// Final balances: A=50, B=200 (T3's versions are ABORTED on both keys
	// and skipped by reads).
	if n, ok := readInt(t, c, 0, "A"); !ok || n != 50 {
		t.Errorf("A = %d ok=%v, want 50", n, ok)
	}
	if n, ok := readInt(t, c, 1, "B"); !ok || n != 200 {
		t.Errorf("B = %d ok=%v, want 200", n, ok)
	}

	// The version chains must reflect Figure 5's "after functor
	// computation" state: three versions per key, the last ABORTED.
	for _, tt := range []struct {
		server int
		key    kv.Key
	}{{0, "A"}, {1, "B"}} {
		view := c.Server(tt.server).Store().View(tt.key)
		if len(view) != 3 {
			t.Fatalf("%s: %d versions, want 3", tt.key, len(view))
		}
		last := view[2].Resolution()
		if last == nil || last.Kind != functor.ResolvedAborted {
			t.Errorf("%s: final version resolution = %v, want ABORTED", tt.key, last)
		}
	}
	// The push optimization should have fired from A's partition to B's.
	if c.Server(0).Stats().PushesSent == 0 {
		t.Error("no proactive pushes were sent")
	}
}

func TestPhase1AbortSecondRound(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	if err := c.Load([]kv.Pair{{Key: "x", Value: kv.EncodeInt64(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// The transaction requires a key that exists nowhere, so phase 1 fails
	// on that key's partition and the coordinator aborts the rest.
	h := mustSubmit(t, c, 0, Txn{
		Writes:   []Write{{Key: "x", Functor: functor.Value(kv.EncodeInt64(99))}},
		Requires: []kv.Key{"missing-item"},
	})
	aborted, reason := h.Installed()
	if !aborted {
		t.Fatal("transaction should abort in phase 1")
	}
	if !strings.Contains(reason, "missing-item") {
		t.Errorf("reason = %q", reason)
	}
	mustAdvance(t, c)
	// The write must not be visible.
	if n, ok := readInt(t, c, 0, "x"); !ok || n != 1 {
		t.Errorf("x = %d ok=%v, want 1 (aborted write visible!)", n, ok)
	}
	stats := c.Stats()
	if stats.TxnsAborted != 1 {
		t.Errorf("TxnsAborted = %d, want 1", stats.TxnsAborted)
	}
}

func TestOnDemandComputeAtReadTime(t *testing.T) {
	// Workers < 0 disables the processor: only Algorithm 1's read-time
	// computation can resolve functors.
	c := newTestCluster(t, 1, -1)
	if err := c.Load([]kv.Pair{{Key: "ctr", Value: kv.EncodeInt64(5)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "ctr", Functor: functor.Add(1)}}})
	}
	mustAdvance(t, c)
	if n, ok := readInt(t, c, 0, "ctr"); !ok || n != 8 {
		t.Errorf("ctr = %d ok=%v, want 8", n, ok)
	}
	if got := c.Stats().FunctorsComputed; got < 3 {
		t.Errorf("FunctorsComputed = %d, want >= 3", got)
	}
}

func TestCrossPartitionTransferConservation(t *testing.T) {
	const (
		servers  = 4
		accounts = 16
		rounds   = 5
		perRound = 20
	)
	c := newTestCluster(t, servers, 2)
	keys := make([]kv.Key, accounts)
	pairs := make([]kv.Pair, accounts)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("acct:%d", i))
		pairs[i] = kv.Pair{Key: keys[i], Value: kv.EncodeInt64(1000)}
	}
	if err := c.Load(pairs); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			src := keys[(round*perRound+i)%accounts]
			dst := keys[(round*perRound+i*7+3)%accounts]
			if src == dst {
				continue
			}
			fe := i % servers
			mustSubmit(t, c, fe, Txn{Writes: []Write{
				{Key: src, Functor: functor.User("xfer-out", kv.EncodeInt64(10), nil, functor.WithRecipients(dst))},
				{Key: dst, Functor: functor.User("xfer-in", xferInArg(src, 10), []kv.Key{src})},
			}})
		}
		mustAdvance(t, c)
		// Conservation must hold at every committed snapshot.
		snapshot := c.Server(0).visibleBound().Prev()
		total := int64(0)
		for _, k := range keys {
			v, found, err := c.Server(0).GetAt(ctx, k, snapshot)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("account %q missing", k)
			}
			n, _ := kv.DecodeInt64(v)
			total += n
		}
		if total != int64(accounts)*1000 {
			t.Fatalf("round %d: total = %d, want %d", round, total, int64(accounts)*1000)
		}
	}
}

func TestDependentKeyDeterminateFunctor(t *testing.T) {
	reg := functor.NewRegistry()
	// next-id increments its own key and writes an order row (dependent
	// key) named by the allocated id — TPC-C's order-id pattern (§V-A2).
	reg.MustRegister("next-id", func(ctx *functor.Context) (*functor.Resolution, error) {
		id := int64(0)
		if r := ctx.Reads[ctx.Key]; r.Found {
			id, _ = kv.DecodeInt64(r.Value)
		}
		id++
		orderKey := kv.Key(fmt.Sprintf("order:%d", id))
		return &functor.Resolution{
			Kind:  functor.Resolved,
			Value: kv.EncodeInt64(id),
			DependentWrites: []functor.DependentWrite{
				{Key: orderKey, Value: ctx.Arg},
			},
		}, nil
	})
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Registry:     reg,
		Router: placement.NewStatic(2, func(k kv.Key, n int) int {
			if strings.HasPrefix(string(k), "order:") {
				return 1
			}
			return 0
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// The determinate functor declares both possible dependent keys; only
	// order:1 is written this time.
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "next", Functor: functor.User("next-id", []byte("order-payload"), nil,
			functor.WithDependentKeys("order:1", "order:2"))},
	}})
	mustAdvance(t, c)
	if committed, reason, err := h.Await(context.Background()); err != nil || !committed {
		t.Fatalf("txn committed=%v reason=%q err=%v", committed, reason, err)
	}
	v, found, err := c.Server(1).GetCommitted(context.Background(), "order:1")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "order-payload" {
		t.Errorf("order:1 = %q found=%v", v, found)
	}
	// order:2's marker dissolved: the key reads as absent.
	if _, found, err := c.Server(0).GetCommitted(context.Background(), "order:2"); err != nil || found {
		t.Errorf("order:2 found=%v err=%v, want absent", found, err)
	}
	if n, ok := readInt(t, c, 0, "next"); !ok || n != 1 {
		t.Errorf("next = %d ok=%v, want 1", n, ok)
	}
}

func TestGetWaitsForEpochCommit(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	if err := c.Load([]kv.Pair{{Key: "k", Value: kv.Value("old")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "k", Functor: functor.Value(kv.Value("new"))}}})

	type result struct {
		v     kv.Value
		found bool
		err   error
	}
	done := make(chan result, 1)
	go func() {
		v, found, err := c.Server(0).Get(context.Background(), "k")
		done <- result{v, found, err}
	}()
	select {
	case <-done:
		t.Fatal("latest-version Get returned before the epoch committed")
	case <-time.After(50 * time.Millisecond):
	}
	mustAdvance(t, c)
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		// The read's timestamp was drawn in the same epoch as the write;
		// SubmitBatch ran first, so the read sees "new".
		if !r.found || string(r.v) != "new" {
			t.Errorf("Get = %q found=%v, want new", r.v, r.found)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get hung after epoch commit")
	}
}

func TestHistoricalReadsTimeTravel(t *testing.T) {
	c := newTestCluster(t, 1, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var versions []tstamp.Timestamp
	for i := 1; i <= 3; i++ {
		h := mustSubmit(t, c, 0, Txn{Writes: []Write{
			{Key: "k", Functor: functor.Value(kv.EncodeInt64(int64(i * 10)))},
		}})
		versions = append(versions, h.Version())
		mustAdvance(t, c)
	}
	ctx := context.Background()
	for i, ver := range versions {
		v, found, err := c.Server(0).GetAt(ctx, "k", ver)
		if err != nil {
			t.Fatal(err)
		}
		want := int64((i + 1) * 10)
		n, _ := kv.DecodeInt64(v)
		if !found || n != want {
			t.Errorf("GetAt(v%d) = %d found=%v, want %d", i, n, found, want)
		}
	}
	// A snapshot below the first version sees nothing.
	if _, found, err := c.Server(0).GetAt(ctx, "k", versions[0].Prev()); err != nil || found {
		t.Errorf("pre-history read found=%v err=%v", found, err)
	}
}

func TestReadManyConsistentSnapshot(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	if err := c.Load([]kv.Pair{
		{Key: "a", Value: kv.EncodeInt64(1)},
		{Key: "b", Value: kv.EncodeInt64(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Writes in the current epoch must not tear the snapshot.
	mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "a", Functor: functor.Value(kv.EncodeInt64(2))},
		{Key: "b", Functor: functor.Value(kv.EncodeInt64(2))},
	}})
	// Draw the snapshot in the write's epoch, then read after commit: both
	// keys must come from one consistent cut.
	snap, err := c.Server(1).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan map[kv.Key]kv.Value, 1)
	go func() {
		ctx := context.Background()
		m := make(map[kv.Key]kv.Value)
		for _, k := range []kv.Key{"a", "b"} {
			v, found, err := c.Server(1).GetAt(ctx, k, snap)
			if err != nil || !found {
				t.Errorf("GetAt(%q): found=%v err=%v", k, found, err)
				done <- nil
				return
			}
			m[k] = v
		}
		done <- m
	}()
	mustAdvance(t, c)
	m := <-done
	if m == nil {
		return
	}
	av, _ := kv.DecodeInt64(m["a"])
	bv, _ := kv.DecodeInt64(m["b"])
	if av != bv {
		t.Errorf("torn snapshot: a=%d b=%d", av, bv)
	}
}

func TestSubmitBatchMixedOutcomes(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	if err := c.Load([]kv.Pair{{Key: "exists", Value: kv.Value("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	txns := []Txn{
		{Writes: []Write{{Key: "good", Functor: functor.Value(kv.Value("1"))}}},
		{Writes: []Write{{Key: "bad", Functor: functor.Value(kv.Value("2"))}}, Requires: []kv.Key{"nope"}},
		{Writes: []Write{{Key: "good2", Functor: functor.Value(kv.Value("3"))}}, Requires: []kv.Key{"exists"}},
	}
	results, _, err := c.Server(0).SubmitBatch(context.Background(), txns)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Aborted || results[2].Aborted {
		t.Errorf("good transactions aborted: %+v", results)
	}
	if !results[1].Aborted {
		t.Error("transaction with missing requirement did not abort")
	}
	mustAdvance(t, c)
	ctx := context.Background()
	if _, found, _ := c.Server(0).GetCommitted(ctx, "good"); !found {
		t.Error("good not visible")
	}
	if _, found, _ := c.Server(0).GetCommitted(ctx, "bad"); found {
		t.Error("aborted write visible")
	}
	if _, found, _ := c.Server(0).GetCommitted(ctx, "good2"); !found {
		t.Error("good2 not visible")
	}
}

func TestTimerDrivenEpochs(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Servers:       2,
		EpochDuration: 5 * time.Millisecond,
		Registry:      testRegistry(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h, err := c.Server(0).Submit(ctx, Txn{Writes: []Write{
		{Key: "k", Functor: functor.Value(kv.Value("v"))},
	}})
	if err != nil {
		t.Fatal(err)
	}
	committed, reason, err := h.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatalf("txn aborted: %s", reason)
	}
	v, found, err := c.Server(1).Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "v" {
		t.Errorf("Get = %q found=%v", v, found)
	}
}

func TestEpochSwitchUnderLoad(t *testing.T) {
	// Continuous submissions across timer-driven epoch switches exercise
	// the in-flight draining and straggler (no-auth) paths.
	c, err := NewCluster(ClusterConfig{
		Servers:       2,
		EpochDuration: 2 * time.Millisecond,
		Registry:      testRegistry(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load([]kv.Pair{{Key: "ctr", Value: kv.EncodeInt64(0)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := c.Server(i%2).Submit(ctx, Txn{Writes: []Write{
			{Key: "ctr", Functor: functor.Add(1)},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for everything to commit, then verify the counter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, found, err := c.Server(0).Get(ctx, "ctr")
		if err != nil {
			t.Fatal(err)
		}
		if found {
			if got, _ := kv.DecodeInt64(v); got == n {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("ctr = %d, want %d", got, n)
			}
		}
	}
}
