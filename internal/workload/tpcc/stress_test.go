package tpcc

import (
	"context"
	"sync"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
)

// TestOrderIDAllocationUnderConcurrency hammers a single district's
// next-order-id key from many concurrent front-ends, with concurrent
// snapshot readers of the order tables (exercising the dependency rule
// mid-allocation), and verifies afterwards that order ids are dense —
// 1..N with no gaps or duplicates — and that every order's rows exist.
func TestOrderIDAllocationUnderConcurrency(t *testing.T) {
	cfg := Config{Servers: 2, Items: 300, CustomersPerDistrict: 20}
	reg := functor.NewRegistry()
	RegisterAlohaHandlers(reg)
	c, err := core.NewCluster(core.ClusterConfig{
		Servers:        cfg.Servers,
		EpochDuration:  3 * time.Millisecond,
		Registry:       reg,
		Router:         placement.NewStatic(cfg.Servers, cfg.Partitioner()),
		DependencyRule: cfg.DependencyRule(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := cfg.Load(func(p kv.Pair) error { return c.Load([]kv.Pair{p}) }); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const (
		writers = 6
		perW    = 25
	)
	var wg sync.WaitGroup
	var handleMu sync.Mutex
	var handles []*core.TxnHandle
	var aborted int
	home := 1 // warehouse 1, district 1: one hot allocation chain
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, err := NewGenerator(cfg, w%cfg.Servers, int64(w)+1)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perW; i++ {
				no := g.NextNewOrder()
				no.W, no.D = home, 1
				if no.InvalidItem {
					no.InvalidItem = false
					no.Lines[len(no.Lines)-1].Item = 1 + i%cfg.Items
				}
				h, err := c.Server(w%cfg.Servers).Submit(ctx, AlohaNewOrder(cfg, no))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				handleMu.Lock()
				if ab, _ := h.Installed(); ab {
					aborted++
				} else {
					handles = append(handles, h)
				}
				handleMu.Unlock()
			}
		}(w)
	}
	// Concurrent readers poke order rows at fresh snapshots while the
	// allocations race: the dependency rule must never show a torn state.
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for oid := int64(1); ; oid++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				v, found, err := c.Server(0).GetCommitted(ctx, OrderKey(home, 1, oid%50+1))
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if found && len(v) == 0 {
					t.Error("reader observed an empty order row")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopReaders)
	readers.Wait()

	for _, h := range handles {
		committed, reason, err := h.Await(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !committed {
			t.Fatalf("NewOrder aborted in compute phase: %s", reason)
		}
	}
	total := int64(len(handles))
	if total == 0 {
		t.Fatal("no transactions committed")
	}
	v, found, err := c.Server(0).GetCommitted(ctx, NextOIDKey(home, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := kv.DecodeInt64(v)
	if !found || got != total {
		t.Fatalf("next_oid = %d, want %d (dense allocation)", got, total)
	}
	// Every id 1..total has its order, new-order, and at least one
	// order-line row; total+1 does not exist.
	for oid := int64(1); oid <= total; oid++ {
		for _, k := range []kv.Key{OrderKey(home, 1, oid), NewOrderKey(home, 1, oid), OrderLineKey(home, 1, oid, 1)} {
			if _, found, err := c.Server(1).GetCommitted(ctx, k); err != nil || !found {
				t.Fatalf("row %s missing (found=%v err=%v)", k, found, err)
			}
		}
	}
	if _, found, _ := c.Server(0).GetCommitted(ctx, OrderKey(home, 1, total+1)); found {
		t.Fatalf("phantom order %d", total+1)
	}
}
