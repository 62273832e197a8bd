package tpcc

import (
	"testing"

	"alohadb/internal/kv"
)

// TestNURandBoundsAndSkew checks the TPC-C non-uniform distribution: all
// values in range, and the distribution visibly non-uniform (hot items
// dominate).
func TestNURandBoundsAndSkew(t *testing.T) {
	g, err := NewGenerator(Config{Servers: 1, Items: 1000, CustomersPerDistrict: 100}, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	const trials = 50_000
	for i := 0; i < trials; i++ {
		v := g.item()
		if v < 1 || v > 1000 {
			t.Fatalf("item %d out of [1,1000]", v)
		}
		counts[v]++
	}
	// NURand(8191, ...) over 1000 items: the top decile receives far more
	// than 10% of draws. Compare the hottest 100 items against a uniform
	// expectation.
	type kvp struct{ item, n int }
	var all []kvp
	for it, n := range counts {
		all = append(all, kvp{it, n})
	}
	// partial selection: count draws in the top 100 by frequency
	top := 0
	for i := 0; i < 100; i++ {
		best := -1
		bi := -1
		for j, e := range all {
			if e.n > best {
				best = e.n
				bi = j
			}
		}
		top += best
		all[bi].n = -1
	}
	if float64(top)/trials < 0.2 {
		t.Errorf("top-100 items received %.1f%% of draws; NURand should skew past 20%%",
			100*float64(top)/trials)
	}
}

// TestGeneratorDeterminism: the same seed yields the same stream, and the
// embedded catalog data always matches the stored rows.
func TestGeneratorDeterminism(t *testing.T) {
	cfg := Config{Servers: 2, Items: 500, CustomersPerDistrict: 50}
	g1, err := NewGenerator(cfg, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(cfg, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a, b := g1.NextNewOrder(), g2.NextNewOrder()
		if a.W != b.W || a.D != b.D || a.C != b.C || len(a.Lines) != len(b.Lines) {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestCatalogFormulasMatchLoader: every loaded catalog value equals its
// deterministic formula, so arguments embedded by generators agree with
// the stored rows byte for byte.
func TestCatalogFormulasMatchLoader(t *testing.T) {
	cfg := Config{Servers: 2, Items: 50, CustomersPerDistrict: 4}
	checked := 0
	if err := cfg.Load(func(p kv.Pair) error {
		prefix, nums := fieldsRef(p.Key)
		got, _ := kv.DecodeInt64(p.Value)
		switch prefix {
		case "i":
			item := int(nums[len(nums)-1])
			if got != ItemPrice(item) {
				t.Errorf("%s price %d != formula %d", p.Key, got, ItemPrice(item))
			}
			checked++
		case "wt":
			if got != WarehouseTax(int(nums[0])) {
				t.Errorf("%s tax mismatch", p.Key)
			}
			checked++
		case "dt":
			if got != DistrictTax(int(nums[0]), int(nums[1])) {
				t.Errorf("%s tax mismatch", p.Key)
			}
			checked++
		case "c":
			if got != CustomerDiscount(int(nums[0]), int(nums[1]), int(nums[2])) {
				t.Errorf("%s discount mismatch", p.Key)
			}
			checked++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no catalog rows checked")
	}
}

// TestNewOrderArgCarriesCatalog: the encoded argument carries warehouse
// tax and per-line prices matching the formulas.
func TestNewOrderArgCarriesCatalog(t *testing.T) {
	no := NewOrder{
		W: 3, D: 1, C: 5, UID: 9,
		Lines: []Line{{Item: 11, SupplyW: 3, Qty: 2}, {Item: 22, SupplyW: 4, Qty: 1}},
	}
	dec, err := decodeNewOrderArg(newOrderArg(no), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.WTax != WarehouseTax(3) {
		t.Errorf("WTax = %d, want %d", dec.WTax, WarehouseTax(3))
	}
	for i, l := range no.Lines {
		if dec.Prices[i] != ItemPrice(l.Item) {
			t.Errorf("price[%d] = %d, want %d", i, dec.Prices[i], ItemPrice(l.Item))
		}
	}
}
