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

// TestDynamicDependentKeys exercises the TPC-C order-id pattern: a
// determinate functor on a sequence key allocates an id during computation
// and writes rows whose names embed the id (unknown at install time). A
// schema-level dependency rule forces the sequence key's watermark forward
// before any order row is read, so readers always observe the deferred
// writes (§IV-E).
func TestDynamicDependentKeys(t *testing.T) {
	reg := functor.NewRegistry()
	reg.MustRegister("alloc-order", func(ctx *functor.Context) (*functor.Resolution, error) {
		id := int64(0)
		if r := ctx.Reads[ctx.Key]; r.Found {
			id, _ = kv.DecodeInt64(r.Value)
		}
		id++
		return &functor.Resolution{
			Kind:  functor.Resolved,
			Value: kv.EncodeInt64(id),
			DependentWrites: []functor.DependentWrite{
				{Key: kv.Key(fmt.Sprintf("order:%d", id)), Value: ctx.Arg},
			},
		}, nil
	})
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Registry:     reg,
		Workers:      -1, // no async processing: the rule alone must settle writes
		Router: placement.NewStatic(2, func(k kv.Key, n int) int {
			// Sequence key on 0, order rows on 1: the deferred write
			// crosses partitions.
			if strings.HasPrefix(string(k), "order:") {
				return 1
			}
			return 0
		}),
		DependencyRule: func(k kv.Key) (kv.Key, bool) {
			if strings.HasPrefix(string(k), "order:") {
				return "seq", true
			}
			return "", false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		payload := []byte(fmt.Sprintf("payload-%d", i))
		if _, err := c.Server(0).Submit(ctx, Txn{Writes: []Write{
			{Key: "seq", Functor: functor.User("alloc-order", payload, nil)},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	mustAdvance(t, c)
	// Reading an order row (never directly installed!) must trigger the
	// rule, compute the sequence functors, apply the deferred writes, and
	// return the payload — even without asynchronous processors.
	for i := 1; i <= 3; i++ {
		key := kv.Key(fmt.Sprintf("order:%d", i))
		v, found, err := c.Server(1).GetCommitted(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("payload-%d", i)
		if !found || string(v) != want {
			t.Errorf("%s = %q found=%v, want %q", key, v, found, want)
		}
	}
	if n, ok := readInt(t, c, 0, "seq"); !ok || n != 3 {
		t.Errorf("seq = %d ok=%v, want 3", n, ok)
	}
	// A row that was never allocated reads as absent, after the rule has
	// settled the sequence key (no false positives).
	if _, found, err := c.Server(0).GetCommitted(ctx, "order:99"); err != nil || found {
		t.Errorf("order:99 found=%v err=%v, want absent", found, err)
	}
}

// TestDependencyRuleWithAbortedAllocator: an aborted determinate functor
// must not leave phantom dependent rows, and the id must be reused by the
// next allocation (the paper's "ALOHA-DB must assign the order id
// dynamically" behaviour, §V-A2).
func TestDependencyRuleWithAbortedAllocator(t *testing.T) {
	reg := functor.NewRegistry()
	reg.MustRegister("alloc-order", func(ctx *functor.Context) (*functor.Resolution, error) {
		id := int64(0)
		if r := ctx.Reads[ctx.Key]; r.Found {
			id, _ = kv.DecodeInt64(r.Value)
		}
		id++
		return &functor.Resolution{
			Kind:  functor.Resolved,
			Value: kv.EncodeInt64(id),
			DependentWrites: []functor.DependentWrite{
				{Key: kv.Key(fmt.Sprintf("order:%d", id)), Value: ctx.Arg},
			},
		}, nil
	})
	c, err := NewCluster(ClusterConfig{
		Servers:      1,
		ManualEpochs: true,
		Registry:     reg,
		Workers:      -1,
		DependencyRule: func(k kv.Key) (kv.Key, bool) {
			if strings.HasPrefix(string(k), "order:") {
				return "seq", true
			}
			return "", false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load([]kv.Pair{{Key: "item", Value: kv.Value("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// First allocation aborts in phase 1 (missing required item).
	h, err := c.Server(0).Submit(ctx, Txn{
		Writes:   []Write{{Key: "seq", Functor: functor.User("alloc-order", []byte("phantom"), nil)}},
		Requires: []kv.Key{"missing"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if aborted, _ := h.Installed(); !aborted {
		t.Fatal("expected phase-1 abort")
	}
	// Second allocation succeeds.
	if _, err := c.Server(0).Submit(ctx, Txn{
		Writes:   []Write{{Key: "seq", Functor: functor.User("alloc-order", []byte("real"), nil)}},
		Requires: []kv.Key{"item"},
	}); err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	// The aborted allocation's version is skipped: id 1 goes to the real
	// transaction and its payload is "real", not "phantom".
	v, found, err := c.Server(0).GetCommitted(ctx, "order:1")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "real" {
		t.Errorf("order:1 = %q found=%v, want real", v, found)
	}
	if n, ok := readInt(t, c, 0, "seq"); !ok || n != 1 {
		t.Errorf("seq = %d ok=%v, want 1", n, ok)
	}
}

// TestReadCreatesNoKey: a dependency-rule read settles the determinate key
// up to the snapshot, and when nobody ever wrote that key there is nothing
// to settle — the read must not leave an empty chain behind for scans, key
// counts, exports and checkpoints to find. Locally and over a remote
// ensure-up-to (FetchUpTo).
func TestReadCreatesNoKey(t *testing.T) {
	for _, servers := range []int{1, 2} {
		c, err := NewCluster(ClusterConfig{
			Servers:      servers,
			ManualEpochs: true,
			Workers:      -1,
			// The determinate key lives on the last server, order rows on
			// server 0: with two servers the ensure crosses partitions.
			Router: placement.NewStatic(servers, func(k kv.Key, n int) int {
				if k == "seq" {
					return n - 1
				}
				return 0
			}),
			DependencyRule: func(k kv.Key) (kv.Key, bool) {
				if strings.HasPrefix(string(k), "order:") {
					return "seq", true
				}
				return "", false
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		mustAdvance(t, c)
		if _, found, err := c.Server(0).GetCommitted(context.Background(), "order:1"); err != nil || found {
			t.Fatalf("%d servers: read of a key nobody wrote: found=%v err=%v", servers, found, err)
		}
		for i := 0; i < servers; i++ {
			store := c.Server(i).Store()
			store.RangeKeys(func(k kv.Key) bool {
				t.Errorf("%d servers: the read left key %q on server %d", servers, k, i)
				return true
			})
			if _, _, ok := store.ExportKey("seq"); ok || store.Len() != 0 {
				t.Errorf("%d servers: server %d holds %d keys after a read, \"seq\" exportable: %v", servers, i, store.Len(), ok)
			}
		}
	}
}

// TestEnsureUpToWaitsForOwnerCommit: the Committed broadcast reaches the
// dependent key's server before the determinate key's owner. A dependency
// rule read there must not settle the determinate key up to a snapshot its
// owner has not sealed yet: the allocator's record is still staged and
// invisible, and a watermark raised past it would skip it for good, so the
// row it writes would never appear.
func TestEnsureUpToWaitsForOwnerCommit(t *testing.T) {
	reg := functor.NewRegistry()
	reg.MustRegister("alloc-order", func(ctx *functor.Context) (*functor.Resolution, error) {
		return &functor.Resolution{
			Kind:            functor.Resolved,
			Value:           kv.EncodeInt64(1),
			DependentWrites: []functor.DependentWrite{{Key: "order:1", Value: ctx.Arg}},
		}, nil
	})
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Registry:     reg,
		Workers:      -1,
		Router: placement.NewStatic(2, func(k kv.Key, n int) int {
			if strings.HasPrefix(string(k), "order:") {
				return 1
			}
			return 0
		}),
		DependencyRule: func(k kv.Key) (kv.Key, bool) {
			if strings.HasPrefix(string(k), "order:") {
				return "seq", true
			}
			return "", false
		},
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
		{Key: "seq", Functor: functor.User("alloc-order", []byte("p1"), nil)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Switch the epoch by hand, delivering Committed to server 1 only.
	e := h.Version().Epoch()
	for i := 0; i < 2; i++ {
		acked := make(chan struct{})
		c.Server(i).Revoke(e, func() { close(acked) })
		<-acked
	}
	c.Server(1).Committed(e)
	snap := tstamp.End(e).Prev()

	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	_, _, _ = c.Server(1).GetAt(short, "order:1", snap)
	if chain, _, _ := c.Server(0).Store().Read("seq", snap); chain == nil || chain.Watermark() >= snap {
		t.Error("a read on server 1 settled seq past a record its owner has not committed")
	}

	c.Server(0).Committed(e)
	v, found, err := c.Server(1).GetAt(ctx, "order:1", snap)
	if err != nil || !found || string(v) != "p1" {
		t.Errorf("order:1 = %q found=%v err=%v, want \"p1\"", v, found, err)
	}
}
