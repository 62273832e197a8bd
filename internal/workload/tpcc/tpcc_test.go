package tpcc

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
)

// fieldsRef is the reference key parser: every numeric component, as a
// slice. The router's fields must agree with it on every key.
func fieldsRef(k kv.Key) (prefix string, nums []int64) {
	s := string(k)
	sep := strings.IndexByte(s, ':')
	if sep < 0 {
		return "", nil
	}
	prefix = s[:sep]
	rest := s[sep+1:]
	for len(rest) > 0 {
		next := strings.IndexByte(rest, ':')
		var part string
		if next < 0 {
			part, rest = rest, ""
		} else {
			part, rest = rest[:next], rest[next+1:]
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return "", nil
		}
		nums = append(nums, n)
	}
	return prefix, nums
}

// routerKeys is one key from every constructor in keys.go, inside and
// outside the configuration's warehouse and district ranges, plus keys no
// constructor builds.
func routerKeys() (wellFormed, malformed []kv.Key) {
	for _, w := range []int{1, 2, 7} {
		for _, d := range []int{1, 10, 13} {
			wellFormed = append(wellFormed,
				ItemKey(w*1000+d), ReplicaItemKey(w, 4242), StockKey(w, 99),
				WarehouseTaxKey(w), WarehouseYTDKey(w), DistrictTaxKey(w, d), DistrictYTDKey(w, d),
				NextOIDKey(w, d), CustomerKey(w, d, 7), CustomerBalanceKey(w, d, 7),
				OrderKey(w, d, 3001), NewOrderKey(w, d, 3001), OrderLineKey(w, d, 3001, 5),
				HistoryKey(w, d, 7, 1<<48|9))
		}
	}
	malformed = []kv.Key{
		"", "garbage", "x:notanumber", "o:", "o:1", "o:1:", "o::2", "o:1:x:3", "ol:1:2:3:",
		"o:+1:02:5", "no:-1:2:3", "ol:0:0:0:0", "s:1", "s:x:1", "c:1", "dt:99999999999999999999:1",
		"h:1:2:3:18446744073709551615", "zz:1:2", ":1:2", "i:", "wy:abc", "o:1:2:3:4:5:6",
		"o:1:-", "o:1:+", "s:9223372036854775808:1", "s:-9223372036854775808:1",
	}
	return wellFormed, malformed
}

// TestKeyStrings holds every constructor to the key it has always built —
// the stores, logs and checkpoints of earlier runs are keyed by these bytes —
// including ids no workload generates.
func TestKeyStrings(t *testing.T) {
	for got, want := range map[kv.Key]string{
		ItemKey(4242):                            "i:4242",
		ReplicaItemKey(1, 20000):                 "i:1:20000",
		StockKey(12, 99):                         "s:12:99",
		WarehouseTaxKey(3):                       "wt:3",
		WarehouseYTDKey(3):                       "wy:3",
		DistrictTaxKey(3, 10):                    "dt:3:10",
		DistrictYTDKey(3, 10):                    "dy:3:10",
		NextOIDKey(3, 10):                        "doid:3:10",
		CustomerKey(3, 10, 600):                  "c:3:10:600",
		CustomerBalanceKey(3, 10, 600):           "cb:3:10:600",
		OrderKey(3, 10, 3001):                    "o:3:10:3001",
		NewOrderKey(3, 10, 3001):                 "no:3:10:3001",
		OrderLineKey(3, 10, 3001, 15):            "ol:3:10:3001:15",
		HistoryKey(3, 10, 600, 1<<64-1):          "h:3:10:600:18446744073709551615",
		StockKey(-1, 0):                          "s:-1:0",
		OrderKey(0, 0, -1<<63):                   "o:0:0:-9223372036854775808",
		OrderLineKey(1<<62, 1<<62, 1<<62, 1<<62): "ol:4611686018427387904:4611686018427387904:4611686018427387904:4611686018427387904", // longer than the stack buffer
	} {
		if string(got) != want {
			t.Errorf("key %q, want %q", got, want)
		}
	}
}

func TestFieldsMatchesReference(t *testing.T) {
	well, mal := routerKeys()
	keys := append(well, mal...)
	// And what no list thinks of: random strings over the bytes the parser
	// tells apart, long enough to pass the int64 bounds.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(28))
		for j := range b {
			b[j] = "o:::+-0123456789x"[rng.Intn(17)]
		}
		keys = append(keys, kv.Key(b))
	}
	for _, k := range keys {
		wantPrefix, wantNums := fieldsRef(k)
		prefix, nums, n := fields(k)
		if prefix != wantPrefix || n != len(wantNums) {
			t.Errorf("fields(%q) = %q with %d numbers, reference %q %v", k, prefix, n, wantPrefix, wantNums)
			continue
		}
		for i := 0; i < n && i < len(nums); i++ {
			if nums[i] != wantNums[i] {
				t.Errorf("fields(%q) nums[%d] = %d, reference %d", k, i, nums[i], wantNums[i])
			}
		}
	}
}

// refPartitioner and refDependencyRule are the router as it was written
// over fieldsRef; the closures Config hands out must give the same answer
// for every key, well-formed or not.
func refPartitioner(scaled bool, k kv.Key, n int) int {
	prefix, nums := fieldsRef(k)
	if len(nums) == 0 {
		return kv.PartitionOf(k, n)
	}
	byWarehouse := func() int {
		if scaled {
			if len(nums) < 2 {
				return kv.PartitionOf(k, n)
			}
			return int(nums[1]) % n
		}
		return warehouseServer(int(nums[0]), n)
	}
	switch prefix {
	case "i":
		return int(nums[0]) % n
	case "wt", "wy":
		return warehouseServer(int(nums[0]), n)
	case "s", "dt", "dy", "doid", "c", "cb", "o", "no", "ol", "h":
		return byWarehouse()
	default:
		return kv.PartitionOf(k, n)
	}
}

func refDependencyRule(k kv.Key) (kv.Key, bool) {
	prefix, nums := fieldsRef(k)
	switch prefix {
	case "o", "no", "ol":
		if len(nums) < 2 {
			return "", false
		}
		return NextOIDKey(int(nums[0]), int(nums[1])), true
	}
	return "", false
}

func TestRouterMatchesReferenceAndAllocatesNothing(t *testing.T) {
	well, mal := routerKeys()
	for _, cfg := range []Config{{Servers: 2}, {Servers: 4, WarehousesPerServer: 2}, {Servers: 3, Scaled: true, DistrictsPerServer: 4}} {
		part, rule := cfg.Partitioner(), cfg.DependencyRule()
		for _, k := range append(append([]kv.Key{}, well...), mal...) {
			if got, want := part(k, cfg.Servers), refPartitioner(cfg.Scaled, k, cfg.Servers); got != want {
				t.Errorf("%+v: partition(%q) = %d, reference %d", cfg, k, got, want)
			}
			det, ok := rule(k)
			if wantDet, wantOK := refDependencyRule(k); det != wantDet || ok != wantOK {
				t.Errorf("%+v: rule(%q) = %q %v, reference %q %v", cfg, k, det, ok, wantDet, wantOK)
			}
		}
		// Every key a constructor builds for this configuration routes
		// without touching the heap.
		var keys []kv.Key
		for _, k := range well {
			if _, nums := fieldsRef(k); len(nums) >= 2 && k[0] != 'i' &&
				(nums[0] > int64(cfg.Warehouses()) || nums[1] > int64(cfg.DistrictsPerWarehouse())) {
				continue
			}
			keys = append(keys, k)
		}
		if len(keys) < 14 {
			t.Fatalf("%+v: only %d in-range keys", cfg, len(keys))
		}
		var sink int
		if n := testing.AllocsPerRun(100, func() {
			for _, k := range keys {
				sink += part(k, cfg.Servers)
				if det, ok := rule(k); ok {
					sink += len(det)
				}
			}
		}); n != 0 {
			t.Errorf("%+v: routing %d keys allocates %v objects, want 0", cfg, len(keys), n)
		}
	}
}

// BenchmarkPartitioner routes one key from every constructor: ns/op is per
// key, the router's share of a NewOrder is ~44 of them.
func BenchmarkPartitioner(b *testing.B) {
	keys, _ := routerKeys()
	part := Config{Servers: 2}.Partitioner()
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += part(keys[i%len(keys)], 2)
	}
	_ = sink
}

func TestPartitionerByWarehouse(t *testing.T) {
	cfg := Config{Servers: 4}
	part := cfg.Partitioner()
	// Warehouse w lives on server (w-1) % 4; all its rows colocate.
	for w := 1; w <= 8; w++ {
		want := (w - 1) % 4
		for _, k := range []kv.Key{
			WarehouseTaxKey(w), WarehouseYTDKey(w), DistrictTaxKey(w, 3),
			NextOIDKey(w, 3), CustomerKey(w, 3, 7), StockKey(w, 123),
			OrderKey(w, 3, 9), NewOrderKey(w, 3, 9), OrderLineKey(w, 3, 9, 1),
			HistoryKey(w, 3, 7, 1),
		} {
			if got := part(k, 4); got != want {
				t.Errorf("part(%q) = %d, want %d", k, got, want)
			}
		}
	}
	// Items spread by item id.
	if part(ItemKey(6), 4) != 2 {
		t.Errorf("item partition = %d, want 2", part(ItemKey(6), 4))
	}
}

func TestPartitionerScaled(t *testing.T) {
	cfg := Config{Servers: 4, Scaled: true}
	part := cfg.Partitioner()
	// Stock and items by item id.
	if got := part(StockKey(1, 6), 4); got != 2 {
		t.Errorf("scaled stock partition = %d, want 2", got)
	}
	if got := part(ItemKey(6), 4); got != 2 {
		t.Errorf("scaled item partition = %d, want 2", got)
	}
	// District-scoped rows by district.
	for d := 1; d <= 8; d++ {
		want := d % 4
		for _, k := range []kv.Key{
			DistrictTaxKey(1, d), NextOIDKey(1, d), CustomerKey(1, d, 5),
			OrderKey(1, d, 3), OrderLineKey(1, d, 3, 1),
		} {
			if got := part(k, 4); got != want {
				t.Errorf("part(%q) = %d, want %d", k, got, want)
			}
		}
	}
}

func TestDependencyRule(t *testing.T) {
	rule := Config{Servers: 2}.DependencyRule()
	for _, k := range []kv.Key{OrderKey(2, 5, 9), NewOrderKey(2, 5, 9), OrderLineKey(2, 5, 9, 3)} {
		det, ok := rule(k)
		if !ok || det != NextOIDKey(2, 5) {
			t.Errorf("rule(%q) = %q ok=%v, want %q", k, det, ok, NextOIDKey(2, 5))
		}
	}
	for _, k := range []kv.Key{ItemKey(1), StockKey(1, 2), NextOIDKey(1, 1), "junk"} {
		if _, ok := rule(k); ok {
			t.Errorf("rule(%q) should not apply", k)
		}
	}
}

func TestStockDeduct(t *testing.T) {
	tests := []struct {
		name   string
		start  int64
		qty    int64
		remote bool
		want   Stock
	}{
		{name: "plenty", start: 50, qty: 5, want: Stock{Quantity: 45, YTD: 5, OrderCnt: 1}},
		{name: "exactly threshold", start: 15, qty: 5, want: Stock{Quantity: 10, YTD: 5, OrderCnt: 1}},
		{name: "wraps", start: 14, qty: 5, want: Stock{Quantity: 100, YTD: 5, OrderCnt: 1}},
		{name: "remote", start: 50, qty: 5, remote: true, want: Stock{Quantity: 45, YTD: 5, OrderCnt: 1, RemoteCnt: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Stock{Quantity: tt.start}.Deduct(tt.qty, tt.remote)
			if got != tt.want {
				t.Errorf("Deduct = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestStockCodecRoundTrip(t *testing.T) {
	s := Stock{Quantity: 42, YTD: 100, OrderCnt: 7, RemoteCnt: 3}
	if got := DecodeStock(s.Encode()); got != s {
		t.Errorf("round trip = %+v, want %+v", got, s)
	}
	if got := DecodeStock(kv.Value("short")); got != (Stock{}) {
		t.Errorf("malformed stock = %+v, want zero", got)
	}
}

func TestNewOrderArgRoundTrip(t *testing.T) {
	no := NewOrder{
		W: 3, D: 7, C: 1234, UID: 1<<48 | 99,
		Lines: []Line{{Item: 5, SupplyW: 3, Qty: 2}, {Item: 88, SupplyW: 4, Qty: 10}},
	}
	got, err := decodeNewOrderArg(newOrderArg(no), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != no.W || got.D != no.D || got.C != no.C || got.UID != no.UID {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Lines) != 2 || got.Lines[1] != no.Lines[1] {
		t.Errorf("lines mismatch: %+v", got.Lines)
	}
	if _, err := decodeNewOrderArg([]byte{1, 2}, nil, nil); err == nil {
		t.Error("truncated argument should fail")
	}
}

func TestGeneratorNewOrderShape(t *testing.T) {
	cfg := Config{Servers: 4, WarehousesPerServer: 2, Items: 1000, CustomersPerDistrict: 100, AbortRate: 0.01}
	g, err := NewGenerator(cfg, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	invalid := 0
	for trial := 0; trial < 2000; trial++ {
		no := g.NextNewOrder()
		// Home warehouse on the origin server.
		if (no.W-1)%4 != 1 {
			t.Fatalf("home warehouse %d not on server 1", no.W)
		}
		if no.D < 1 || no.D > 10 {
			t.Fatalf("district %d out of range", no.D)
		}
		if no.C < 1 || no.C > 100 {
			t.Fatalf("customer %d out of range", no.C)
		}
		if len(no.Lines) < 5 || len(no.Lines) > 15 {
			t.Fatalf("%d lines, out of 5..15", len(no.Lines))
		}
		// Distributed convention: the first line's supply warehouse lives
		// on another server.
		if (no.Lines[0].SupplyW-1)%4 == 1 {
			t.Fatalf("first line supply warehouse %d is on the home server", no.Lines[0].SupplyW)
		}
		if no.InvalidItem {
			invalid++
			last := no.Lines[len(no.Lines)-1]
			if last.Item <= cfg.Items {
				t.Fatalf("invalid-item transaction references a valid item %d", last.Item)
			}
		} else {
			for _, l := range no.Lines {
				if l.Item < 1 || l.Item > cfg.Items {
					t.Fatalf("item %d out of range", l.Item)
				}
			}
		}
	}
	if invalid == 0 || invalid > 100 {
		t.Errorf("invalid transactions = %d of 2000, want around 20", invalid)
	}
}

func TestGeneratorScaled(t *testing.T) {
	cfg := Config{Servers: 4, Scaled: true, DistrictsPerServer: 2, Items: 500}
	g, err := NewGenerator(cfg, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		no := g.NextNewOrder()
		if no.W != 1 {
			t.Fatalf("scaled warehouse = %d, want 1", no.W)
		}
		if no.D < 1 || no.D > 8 {
			t.Fatalf("district %d out of 1..8", no.D)
		}
		for _, l := range no.Lines {
			if l.SupplyW != 1 {
				t.Fatalf("scaled supply warehouse = %d, want 1", l.SupplyW)
			}
		}
	}
}

func TestGeneratorPayment(t *testing.T) {
	g, err := NewGenerator(Config{Servers: 2, CustomersPerDistrict: 50}, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		p := g.NextPayment()
		if (p.W-1)%2 != 0 {
			t.Fatalf("payment warehouse %d not on origin server", p.W)
		}
		if p.Amount <= 0 {
			t.Fatalf("amount %d", p.Amount)
		}
		if p.C < 1 || p.C > 50 {
			t.Fatalf("customer %d", p.C)
		}
	}
}

func TestLoadShape(t *testing.T) {
	cfg := Config{Servers: 2, Items: 10, CustomersPerDistrict: 3}
	counts := make(map[byte]int)
	if err := cfg.Load(func(p kv.Pair) error {
		counts[p.Key[0]]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	warehouses := cfg.Warehouses() // 2
	// The read-only item table is replicated per server under TPC-C.
	if got := counts['i']; got != 10*cfg.Servers {
		t.Errorf("items = %d, want %d", got, 10*cfg.Servers)
	}
	if got := counts['s']; got != 10*warehouses {
		t.Errorf("stock = %d, want %d", got, 10*warehouses)
	}
	// c + cb share prefix 'c'; 2 warehouses x 10 districts x 3 customers x 2 keys
	if got := counts['c']; got != warehouses*10*3*2 {
		t.Errorf("customer keys = %d, want %d", got, warehouses*10*3*2)
	}
}

func TestLoadScaledOmitsWarehouseYTD(t *testing.T) {
	cfg := Config{Servers: 2, Scaled: true, Items: 5, CustomersPerDistrict: 1}
	for _, p := range cfg.LoadPairs() {
		prefix, _ := fieldsRef(p.Key)
		if prefix == "wy" {
			t.Fatal("scaled TPC-C must not load w_ytd (the column is removed, §V-A1)")
		}
	}
}

func TestAdjustTotal(t *testing.T) {
	// 100.00 with 5% + 5% tax and 10% discount: 100 * 1.10 * 0.90 = 99.00
	got := adjustTotal(10000, 500, 500, 1000)
	if got != 9900 {
		t.Errorf("adjustTotal = %d, want 9900", got)
	}
}

// tenLineOrder is a NewOrder with ten lines, one of them from a remote
// warehouse, and multi-digit ids in every key.
func tenLineOrder() NewOrder {
	no := NewOrder{W: 2, D: 7, C: 431, UID: 1<<40 + 12345}
	for i := 0; i < 10; i++ {
		no.Lines = append(no.Lines, Line{Item: 10_007 + 311*i, SupplyW: 2, Qty: 1 + i%10})
	}
	no.Lines[3].SupplyW = 1
	return no
}

// TestNewOrderAllocations pins what a ten-line NewOrder costs in heap
// objects on its two workload-owned stages: building the transaction (one
// object per key, functor and f-argument) and the determinate handler (one
// per dependent row key and value). Every one of the handler's objects stays
// live with the rows it creates.
func TestNewOrderAllocations(t *testing.T) {
	cfg, no := Config{Servers: 2}, tenLineOrder()
	var txn core.Txn
	got := testing.AllocsPerRun(200, func() { txn = AlohaNewOrder(cfg, no) })
	t.Logf("AlohaNewOrder: %.0f objects", got)
	if got > 28 {
		// 1 readSet + 2 of its keys, 1 requires + 10 item keys, 1 writes,
		// the determinate write's key, functor and argument, and per line a
		// stock key, a functor and an argument.
		t.Errorf("AlohaNewOrder allocates %.0f objects for a ten-line order, budget 28", got)
	}
	ctx := &functor.Context{
		Key:     txn.Writes[0].Key,
		Arg:     txn.Writes[0].Functor.Arg,
		Version: 1,
		Reads: map[kv.Key]functor.Read{
			txn.Writes[0].Key: {Value: kv.EncodeInt64(3000), Found: true},
		},
	}
	var res *functor.Resolution
	got = testing.AllocsPerRun(200, func() { res, _ = alohaNewOrderHandler(ctx) })
	t.Logf("alohaNewOrderHandler: %.0f objects", got)
	if got > 26 {
		t.Errorf("alohaNewOrderHandler allocates %.0f objects for a ten-line order, budget 28", got)
	}
	if res == nil || len(res.DependentWrites) != 12 || res.DependentWrites[11].Key != "ol:2:7:3001:10" {
		t.Fatalf("handler result %+v", res)
	}
}
