package tpcc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"alohadb/internal/kv"
)

// Config parameterizes the TPC-C workload.
type Config struct {
	// Servers is the cluster size. Required.
	Servers int
	// Scaled selects the Scaled TPC-C variant: one warehouse spanning all
	// servers, partitioned by item and district; the w_ytd column is
	// removed, so Payment is unavailable (§V-A1).
	Scaled bool
	// WarehousesPerServer sets the TPC-C density knob (the paper sweeps
	// 1-10, "1W".."10W"). Default 1. Ignored when Scaled.
	WarehousesPerServer int
	// DistrictsPerServer sets the Scaled TPC-C density knob ("1D".."10D").
	// Default 1. Ignored unless Scaled.
	DistrictsPerServer int
	// Items is the item table size (TPC-C standard: 100 000).
	Items int
	// CustomersPerDistrict is the customer table density (standard: 3000).
	CustomersPerDistrict int
	// AbortRate is the fraction of NewOrder transactions that reference an
	// unused item and must abort (TPC-C requires 1%). Applied on ALOHA-DB
	// only: Calvin's deterministic design cannot abort (§V-A2).
	AbortRate float64
}

func (c Config) withDefaults() Config {
	if c.WarehousesPerServer <= 0 {
		c.WarehousesPerServer = 1
	}
	if c.DistrictsPerServer <= 0 {
		c.DistrictsPerServer = 1
	}
	if c.Items <= 0 {
		c.Items = 100_000
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 3000
	}
	if c.AbortRate < 0 {
		c.AbortRate = 0
	}
	return c
}

// Warehouses returns the warehouse count: Servers × WarehousesPerServer,
// or exactly 1 under Scaled TPC-C.
func (c Config) Warehouses() int {
	c = c.withDefaults()
	if c.Scaled {
		return 1
	}
	return c.Servers * c.WarehousesPerServer
}

// DistrictsPerWarehouse returns the district count per warehouse: the
// standard 10 for TPC-C, Servers × DistrictsPerServer for Scaled TPC-C
// (the single warehouse spans many hosts).
func (c Config) DistrictsPerWarehouse() int {
	c = c.withDefaults()
	if c.Scaled {
		return c.Servers * c.DistrictsPerServer
	}
	return 10
}

// Load streams the initial database to fn: items, stock, warehouses,
// districts, and customers, with TPC-C-plausible value distributions.
func (c Config) Load(fn func(kv.Pair) error) error {
	c = c.withDefaults()
	if c.Servers <= 0 {
		return fmt.Errorf("tpcc: Servers must be positive")
	}
	rng := rand.New(rand.NewSource(20180701))
	emit := func(k kv.Key, v kv.Value) error { return fn(kv.Pair{Key: k, Value: v}) }

	for i := 1; i <= c.Items; i++ {
		price := ItemPrice(i)
		if c.Scaled {
			// Scaled TPC-C partitions the single item table by item id.
			if err := emit(ItemKey(i), kv.EncodeInt64(price)); err != nil {
				return err
			}
			continue
		}
		// TPC-C replicates the read-only item table to every server so
		// NewOrder contacts exactly two partitions.
		for srv := 0; srv < c.Servers; srv++ {
			if err := emit(ReplicaItemKey(srv, i), kv.EncodeInt64(price)); err != nil {
				return err
			}
		}
	}
	warehouses := c.Warehouses()
	districts := c.DistrictsPerWarehouse()
	for w := 1; w <= warehouses; w++ {
		if err := emit(WarehouseTaxKey(w), kv.EncodeInt64(WarehouseTax(w))); err != nil {
			return err
		}
		if !c.Scaled {
			// Scaled TPC-C removes w_ytd (§V-A1).
			if err := emit(WarehouseYTDKey(w), kv.EncodeInt64(0)); err != nil {
				return err
			}
		}
		for i := 1; i <= c.Items; i++ {
			s := Stock{Quantity: int64(10 + rng.Intn(91))}
			if err := emit(StockKey(w, i), s.Encode()); err != nil {
				return err
			}
		}
		for d := 1; d <= districts; d++ {
			if err := emit(DistrictTaxKey(w, d), kv.EncodeInt64(DistrictTax(w, d))); err != nil {
				return err
			}
			if err := emit(DistrictYTDKey(w, d), kv.EncodeInt64(0)); err != nil {
				return err
			}
			if err := emit(NextOIDKey(w, d), kv.EncodeInt64(0)); err != nil {
				return err
			}
			for cu := 1; cu <= c.CustomersPerDistrict; cu++ {
				disc := CustomerDiscount(w, d, cu)
				if err := emit(CustomerKey(w, d, cu), kv.EncodeInt64(disc)); err != nil {
					return err
				}
				if err := emit(CustomerBalanceKey(w, d, cu), kv.EncodeInt64(0)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// LoadPairs collects the full initial database (tests and small configs).
func (c Config) LoadPairs() []kv.Pair {
	var out []kv.Pair
	_ = c.Load(func(p kv.Pair) error {
		out = append(out, p)
		return nil
	})
	return out
}

// ItemPrice is the deterministic catalog price of an item in cents. The
// loader stores it and the transaction generators embed it in NewOrder
// f-arguments: item rows are immutable catalog data, so the manual
// transaction-to-functor transformation (§IV-B, "the f-argument [takes]
// the transaction read set and any arguments that influence the result")
// may carry prices with the transaction instead of reading them during
// functor computation — which keeps the order-allocation functor's read
// set partition-local. The phase-1 item existence check (Requires) still
// runs against the stored rows, preserving the 1% abort rule.
func ItemPrice(item int) int64 {
	return 100 + int64(item*7919%9901)
}

// WarehouseTax is the deterministic warehouse tax in basis points.
func WarehouseTax(w int) int64 { return int64(w*613) % 2001 }

// DistrictTax is the deterministic district tax in basis points.
func DistrictTax(w, d int) int64 { return int64(w*31+d*997) % 2001 }

// CustomerDiscount is the deterministic customer discount in basis points.
func CustomerDiscount(w, d, c int) int64 { return int64(w*17+d*29+c*5003) % 5001 }

// itemKeyFor returns the item-row key a transaction homed at warehouse w
// reads for the given item: the server-local replica under TPC-C, the
// globally partitioned row under scaled TPC-C.
func (c Config) itemKeyFor(w, item int) kv.Key {
	c = c.withDefaults()
	if c.Scaled {
		return ItemKey(item)
	}
	return ReplicaItemKey(warehouseServer(w, c.Servers), item)
}

// Line is one NewOrder order line.
type Line struct {
	Item    int
	SupplyW int
	Qty     int
}

// NewOrder is one engine-neutral NewOrder transaction.
type NewOrder struct {
	W, D, C int
	UID     uint64
	Lines   []Line
	// InvalidItem marks the 1% of transactions referencing an unused item
	// number; they must abort (ALOHA-DB only, §V-A2).
	InvalidItem bool
}

// Payment is one engine-neutral Payment transaction (TPC-C mode only).
type Payment struct {
	W, D, C int
	UID     uint64
	Amount  int64 // cents
}

// Generator produces transactions. Not safe for concurrent use; create one
// per load-driver goroutine.
type Generator struct {
	cfg     Config
	origin  int // server this generator submits from
	rng     *rand.Rand
	nextUID uint64
	cA      int64 // NURand C constants, per TPC-C §2.1.6
	cC      int64
	cI      int64
}

// NewGenerator returns a generator bound to an origin server (used to pick
// a "home" warehouse on that server and remote warehouses elsewhere).
func NewGenerator(cfg Config, origin int, seed int64) (*Generator, error) {
	cfg = cfg.withDefaults()
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("tpcc: Servers must be positive")
	}
	if origin < 0 || origin >= cfg.Servers {
		return nil, fmt.Errorf("tpcc: origin %d out of range", origin)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		cfg:    cfg,
		origin: origin,
		rng:    rng,
		cA:     rng.Int63n(256),
		cC:     rng.Int63n(1024),
		cI:     rng.Int63n(8192),
	}, nil
}

// nuRand is TPC-C's non-uniform random distribution (§2.1.6).
func (g *Generator) nuRand(a, c, x, y int64) int64 {
	r1 := g.rng.Int63n(a + 1)
	r2 := x + g.rng.Int63n(y-x+1)
	return ((r1|r2)+c)%(y-x+1) + x
}

func (g *Generator) item() int {
	return int(g.nuRand(8191, g.cI, 1, int64(g.cfg.Items)))
}

func (g *Generator) customer() int {
	return int(g.nuRand(1023, g.cC, 1, int64(g.cfg.CustomersPerDistrict)))
}

// homeWarehouse picks a warehouse resident on the generator's origin
// server; remoteWarehouse picks one on a different server (the paper's
// convention: a distributed transaction always accesses a second warehouse
// that is not on the same server, §V-A1).
func (g *Generator) homeWarehouse() int {
	return g.origin + 1 + g.rng.Intn(g.cfg.WarehousesPerServer)*g.cfg.Servers
}

func (g *Generator) remoteWarehouse(home int) int {
	if g.cfg.Servers == 1 {
		return home
	}
	server := g.rng.Intn(g.cfg.Servers - 1)
	if server >= g.origin {
		server++
	}
	return server + 1 + g.rng.Intn(g.cfg.WarehousesPerServer)*g.cfg.Servers
}

// NextNewOrder generates one NewOrder transaction.
func (g *Generator) NextNewOrder() NewOrder {
	cfg := g.cfg
	g.nextUID++
	w := 1
	if !cfg.Scaled {
		w = g.homeWarehouse()
	}
	no := NewOrder{
		W:   w,
		D:   1 + g.rng.Intn(cfg.DistrictsPerWarehouse()),
		C:   g.customer(),
		UID: uint64(g.origin)<<48 | g.nextUID,
	}
	nLines := 5 + g.rng.Intn(11) // 5..15 per TPC-C §2.4.1.3
	seen := make(map[int]bool, nLines)
	for len(no.Lines) < nLines {
		item := g.item()
		if seen[item] {
			continue
		}
		seen[item] = true
		supply := w
		if !cfg.Scaled && len(no.Lines) == 0 && cfg.Servers > 1 {
			// Force the distributed-transaction convention: the first
			// line's supply warehouse lives on another server.
			supply = g.remoteWarehouse(w)
		}
		no.Lines = append(no.Lines, Line{Item: item, SupplyW: supply, Qty: 1 + g.rng.Intn(10)})
	}
	if cfg.AbortRate > 0 && g.rng.Float64() < cfg.AbortRate {
		no.InvalidItem = true
		// An unused item number (TPC-C §2.4.1.5 rolls an invalid item).
		no.Lines[len(no.Lines)-1].Item = cfg.Items + 1 + g.rng.Intn(1000)
	}
	return no
}

// NextPayment generates one Payment transaction (TPC-C mode only).
func (g *Generator) NextPayment() Payment {
	cfg := g.cfg
	g.nextUID++
	w := g.homeWarehouse()
	return Payment{
		W:      w,
		D:      1 + g.rng.Intn(cfg.DistrictsPerWarehouse()),
		C:      g.customer(),
		UID:    uint64(g.origin)<<48 | g.nextUID,
		Amount: int64(100 + g.rng.Intn(500_000)), // 1.00 .. 5000.00
	}
}

// --- argument codec ---------------------------------------------------------

// newOrderArg encodes the NewOrder payload shared by both engines' stored
// procedures: uid, w, d, c, warehouse tax, lines (item, supply warehouse,
// quantity, catalog price).
func newOrderArg(no NewOrder) []byte {
	out := make([]byte, 0, 24+len(no.Lines)*16)
	out = binary.AppendUvarint(out, no.UID)
	out = binary.AppendUvarint(out, uint64(no.W))
	out = binary.AppendUvarint(out, uint64(no.D))
	out = binary.AppendUvarint(out, uint64(no.C))
	out = binary.AppendUvarint(out, uint64(WarehouseTax(no.W)))
	out = binary.AppendUvarint(out, uint64(len(no.Lines)))
	for _, l := range no.Lines {
		out = binary.AppendUvarint(out, uint64(l.Item))
		out = binary.AppendUvarint(out, uint64(l.SupplyW))
		out = binary.AppendUvarint(out, uint64(l.Qty))
		out = binary.AppendUvarint(out, uint64(ItemPrice(l.Item)))
	}
	return out
}

// decodedNewOrder is the wire form: the NewOrder plus embedded catalog
// data.
type decodedNewOrder struct {
	NewOrder
	WTax   int64
	Prices []int64 // per line
}

// _maxLines bounds the lines of a NewOrder argument (TPC-C orders 5 to 15);
// a handler that decodes into arrays of this size keeps them on its stack.
const _maxLines = 64

// decodeNewOrderArg parses a NewOrder argument, appending the lines and
// their prices to the buffers it is handed (nil allocates).
func decodeNewOrderArg(b []byte, lines []Line, prices []int64) (decodedNewOrder, error) {
	var no decodedNewOrder
	var fields [6]uint64 // uid, w, d, c, warehouse tax, line count
	for i := range fields {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return no, errTruncatedNewOrder
		}
		fields[i], b = v, b[n:]
	}
	no.UID, no.W, no.D, no.C, no.WTax = fields[0], int(fields[1]), int(fields[2]), int(fields[3]), int64(fields[4])
	count := fields[5]
	if count > _maxLines {
		return no, fmt.Errorf("tpcc: implausible line count %d", count)
	}
	for i := uint64(0); i < count; i++ {
		var line [4]uint64 // item, supply warehouse, quantity, price
		for j := range line {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return no, errTruncatedNewOrder
			}
			line[j], b = v, b[n:]
		}
		lines = append(lines, Line{Item: int(line[0]), SupplyW: int(line[1]), Qty: int(line[2])})
		prices = append(prices, int64(line[3]))
	}
	no.Lines, no.Prices = lines, prices
	return no, nil
}

var errTruncatedNewOrder = errors.New("tpcc: truncated NewOrder argument")

// orderHeader encodes the order-row value: uid, customer, line count.
func orderHeader(uid uint64, c, lines int) kv.Value {
	out := make([]byte, 0, 12)
	out = binary.AppendUvarint(out, uid)
	out = binary.AppendUvarint(out, uint64(c))
	out = binary.AppendUvarint(out, uint64(lines))
	return out
}

// orderLineValue encodes one order-line row: item, supply warehouse,
// quantity, amount (cents).
func orderLineValue(item, supplyW, qty int, amount int64) kv.Value {
	out := make([]byte, 0, 16)
	out = binary.AppendUvarint(out, uint64(item))
	out = binary.AppendUvarint(out, uint64(supplyW))
	out = binary.AppendUvarint(out, uint64(qty))
	out = binary.AppendUvarint(out, uint64(amount))
	return out
}
