package tpcc

import (
	"context"
	"testing"
	"time"

	"alohadb/internal/calvin"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
)

// smallConfig keeps end-to-end tests quick.
func smallConfig(servers int, scaled bool) Config {
	return Config{
		Servers:              servers,
		Scaled:               scaled,
		Items:                200,
		CustomersPerDistrict: 10,
	}
}

func newAlohaCluster(t *testing.T, cfg Config) *core.Cluster {
	t.Helper()
	reg := functor.NewRegistry()
	RegisterAlohaHandlers(reg)
	c, err := core.NewCluster(core.ClusterConfig{
		Servers:        cfg.Servers,
		ManualEpochs:   true,
		Registry:       reg,
		Router:         placement.NewStatic(cfg.Servers, cfg.Partitioner()),
		DependencyRule: cfg.DependencyRule(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := cfg.Load(func(p kv.Pair) error { return c.Load([]kv.Pair{p}) }); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func newCalvinCluster(t *testing.T, cfg Config) *calvin.Cluster {
	t.Helper()
	procs := calvin.NewProcRegistry()
	RegisterCalvinProcs(procs)
	c, err := calvin.NewCluster(calvin.Config{
		Partitions:    cfg.Servers,
		EpochDuration: 3 * time.Millisecond,
		Procs:         procs,
		Partitioner:   calvin.Partitioner(cfg.Partitioner()),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Load(cfg.LoadPairs()); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAlohaNewOrderEndToEnd drives NewOrder transactions through ALOHA-DB
// and verifies order ids, order/order-line rows (via the dependency rule),
// and stock deductions.
func TestAlohaNewOrderEndToEnd(t *testing.T) {
	cfg := smallConfig(2, false).withDefaults()
	cfg.Items = 200
	cfg.CustomersPerDistrict = 10
	c := newAlohaCluster(t, cfg)
	g, err := NewGenerator(cfg, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var orders []NewOrder
	for i := 0; i < 5; i++ {
		no := g.NextNewOrder()
		for no.InvalidItem { // deterministic part of the test: valid only
			no = g.NextNewOrder()
		}
		no.D = 1 // same district: ids must come out sequential
		orders = append(orders, no)
		h, err := c.Server(0).Submit(ctx, AlohaNewOrder(cfg, no))
		if err != nil {
			t.Fatal(err)
		}
		if aborted, reason := h.Installed(); aborted {
			t.Fatalf("install aborted: %s", reason)
		}
	}
	if _, err := c.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}

	w := orders[0].W
	v, found, err := c.Server(0).GetCommitted(ctx, NextOIDKey(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	oid, _ := kv.DecodeInt64(v)
	if !found || oid != 5 {
		t.Fatalf("next_oid = %d found=%v, want 5", oid, found)
	}
	// Order rows 1..5 exist (reads go through the dependency rule).
	for i := int64(1); i <= 5; i++ {
		if _, found, err := c.Server(1).GetCommitted(ctx, OrderKey(w, 1, i)); err != nil || !found {
			t.Errorf("order %d: found=%v err=%v", i, found, err)
		}
		if _, found, err := c.Server(1).GetCommitted(ctx, NewOrderKey(w, 1, i)); err != nil || !found {
			t.Errorf("new-order %d: found=%v err=%v", i, found, err)
		}
	}
	// Order lines of the first committed order carry priced amounts.
	no := orders[0]
	for li := range no.Lines {
		v, found, err := c.Server(0).GetCommitted(ctx, OrderLineKey(w, 1, 1, li+1))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("order line %d missing", li+1)
		}
		if amt, ok := OrderLineAmount(v); !ok || amt <= 0 {
			t.Errorf("order line %d amount = %d ok=%v", li+1, amt, ok)
		}
	}
	// Stock was deducted: ytd equals the ordered quantity per stock key.
	l := no.Lines[0]
	v, found, err = c.Server(0).GetCommitted(ctx, StockKey(l.SupplyW, l.Item))
	if err != nil || !found {
		t.Fatalf("stock read: found=%v err=%v", found, err)
	}
	s := DecodeStock(v)
	if s.OrderCnt < 1 || s.YTD < int64(l.Qty) {
		t.Errorf("stock not deducted: %+v", s)
	}
	if l.SupplyW != no.W && s.RemoteCnt < 1 {
		t.Errorf("remote count not bumped: %+v", s)
	}
}

// TestAlohaNewOrderAbort: a NewOrder with an unknown item aborts in phase 1
// and consumes no order id.
func TestAlohaNewOrderAbort(t *testing.T) {
	cfg := smallConfig(2, false).withDefaults()
	cfg.AbortRate = 1.0 // every transaction invalid
	c := newAlohaCluster(t, cfg)
	g, err := NewGenerator(cfg, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	no := g.NextNewOrder()
	if !no.InvalidItem {
		t.Fatal("generator did not produce an invalid transaction at rate 1.0")
	}
	h, err := c.Server(0).Submit(ctx, AlohaNewOrder(cfg, no))
	if err != nil {
		t.Fatal(err)
	}
	aborted, _ := h.Installed()
	if !aborted {
		t.Fatal("invalid-item NewOrder did not abort")
	}
	if _, err := c.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Server(0).GetCommitted(ctx, NextOIDKey(no.W, no.D))
	if err != nil {
		t.Fatal(err)
	}
	if oid, _ := kv.DecodeInt64(v); !found || oid != 0 {
		t.Errorf("next_oid = %d, want 0 (aborted transaction consumed an id)", oid)
	}
	if _, found, _ := c.Server(0).GetCommitted(ctx, OrderKey(no.W, no.D, 1)); found {
		t.Error("phantom order row from aborted transaction")
	}
}

// TestAlohaPaymentEndToEnd verifies the Payment functors.
func TestAlohaPaymentEndToEnd(t *testing.T) {
	cfg := smallConfig(2, false).withDefaults()
	c := newAlohaCluster(t, cfg)
	g, err := NewGenerator(cfg, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := g.NextPayment()
	if _, err := c.Server(1).Submit(ctx, AlohaPayment(p)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[kv.Key]int64{
		WarehouseYTDKey(p.W):              p.Amount,
		DistrictYTDKey(p.W, p.D):          p.Amount,
		CustomerBalanceKey(p.W, p.D, p.C): -p.Amount,
		HistoryKey(p.W, p.D, p.C, p.UID):  p.Amount,
	} {
		v, found, err := c.Server(0).GetCommitted(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := kv.DecodeInt64(v)
		if !found || n != want {
			t.Errorf("%s = %d found=%v, want %d", key, n, found, want)
		}
	}
}

// TestEnginesAgreeOnNewOrder runs the same valid NewOrder stream through
// both engines and compares the state both update identically: order-id
// counters and stock rows.
func TestEnginesAgreeOnNewOrder(t *testing.T) {
	cfg := smallConfig(2, false).withDefaults()
	cfg.Items = 200
	cfg.CustomersPerDistrict = 10
	g, err := NewGenerator(cfg, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	var orders []NewOrder
	for len(orders) < 12 {
		no := g.NextNewOrder()
		if no.InvalidItem {
			continue
		}
		orders = append(orders, no)
	}

	aloha := newAlohaCluster(t, cfg)
	ctx := context.Background()
	var last *core.TxnHandle
	for _, no := range orders {
		h, err := aloha.Server(0).Submit(ctx, AlohaNewOrder(cfg, no))
		if err != nil {
			t.Fatal(err)
		}
		last = h
	}
	if _, err := aloha.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	if committed, reason, err := last.Await(ctx); err != nil || !committed {
		t.Fatalf("aloha txn committed=%v reason=%q err=%v", committed, reason, err)
	}

	cal := newCalvinCluster(t, cfg)
	var txns []calvin.Txn
	for _, no := range orders {
		txns = append(txns, CalvinNewOrder(cfg, no))
	}
	handles, err := cal.SubmitMany(0, txns)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("calvin NewOrder never completed")
		}
	}

	// Per-district order-id counters agree.
	seenDistricts := make(map[kv.Key]bool)
	for _, no := range orders {
		seenDistricts[NextOIDKey(no.W, no.D)] = true
	}
	for k := range seenDistricts {
		av, found, err := aloha.Server(0).GetCommitted(ctx, k)
		if err != nil || !found {
			t.Fatalf("aloha %s: found=%v err=%v", k, found, err)
		}
		cv, found := cal.Get(k)
		if !found {
			t.Fatalf("calvin %s missing", k)
		}
		an, _ := kv.DecodeInt64(av)
		cn, _ := kv.DecodeInt64(cv)
		if an != cn {
			t.Errorf("%s: aloha %d, calvin %d", k, an, cn)
		}
	}
	// Stock rows agree byte-for-byte.
	seenStock := make(map[kv.Key]bool)
	for _, no := range orders {
		for _, l := range no.Lines {
			seenStock[StockKey(l.SupplyW, l.Item)] = true
		}
	}
	for k := range seenStock {
		av, found, err := aloha.Server(0).GetCommitted(ctx, k)
		if err != nil || !found {
			t.Fatalf("aloha %s: found=%v err=%v", k, found, err)
		}
		cv, found := cal.Get(k)
		if !found {
			t.Fatalf("calvin %s missing", k)
		}
		if DecodeStock(av) != DecodeStock(cv) {
			t.Errorf("%s: aloha %v, calvin %v", k, DecodeStock(av), DecodeStock(cv))
		}
	}
}

// TestScaledNewOrderBothEngines runs scaled TPC-C (partition by item and
// district) on both engines.
func TestScaledNewOrderBothEngines(t *testing.T) {
	cfg := smallConfig(3, true).withDefaults()
	cfg.Items = 120
	cfg.CustomersPerDistrict = 5
	g, err := NewGenerator(cfg, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	var orders []NewOrder
	for len(orders) < 8 {
		no := g.NextNewOrder()
		if no.InvalidItem {
			continue
		}
		orders = append(orders, no)
	}

	aloha := newAlohaCluster(t, cfg)
	ctx := context.Background()
	for i, no := range orders {
		if _, err := aloha.Server(i%cfg.Servers).Submit(ctx, AlohaNewOrder(cfg, no)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := aloha.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}

	cal := newCalvinCluster(t, cfg)
	var handles []*calvin.Handle
	for i, no := range orders {
		hs, err := cal.SubmitMany(i%cfg.Servers, []calvin.Txn{CalvinNewOrder(cfg, no)})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hs...)
	}
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("calvin scaled NewOrder never completed")
		}
	}

	perDistrict := make(map[kv.Key]int64)
	for _, no := range orders {
		perDistrict[NextOIDKey(no.W, no.D)]++
	}
	for k, want := range perDistrict {
		av, found, err := aloha.Server(0).GetCommitted(ctx, k)
		if err != nil || !found {
			t.Fatalf("aloha %s: found=%v err=%v", k, found, err)
		}
		an, _ := kv.DecodeInt64(av)
		if an != want {
			t.Errorf("aloha %s = %d, want %d", k, an, want)
		}
		cv, found := cal.Get(k)
		if !found {
			t.Fatalf("calvin %s missing", k)
		}
		cn, _ := kv.DecodeInt64(cv)
		if cn != want {
			t.Errorf("calvin %s = %d, want %d", k, cn, want)
		}
	}
}
