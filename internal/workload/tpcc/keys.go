// Package tpcc implements the TPC-C workload of the paper's evaluation
// (§V-A1): NewOrder and Payment transactions over the standard
// partition-by-warehouse layout ("TPC-C") and the scaled variant of
// Rococo [1] that treats the database as one large warehouse partitioned
// by item and district ("Scaled TPC-C"). The same generated transactions
// run on both engines: as functors on ALOHA-DB (with the district
// next-order-id as the determinate key, §V-A2) and as deterministic stored
// procedures on Calvin.
package tpcc

import (
	"encoding/binary"
	"strconv"
	"strings"

	"alohadb/internal/kv"
)

// Key constructors. Numeric fields are decimal-encoded; every row that the
// transactions touch independently is its own key, which keeps functors
// single-purpose (an ADD on a YTD counter never conflicts structurally
// with a balance update). A NewOrder builds two dozen keys, so each is
// assembled in a stack buffer and costs one allocation, the string.
func ItemKey(item int) kv.Key { return key("i:", int64(item)) }

// ReplicaItemKey is the per-server copy of a read-only item row. Standard
// TPC-C deployments replicate the item table to every server so a
// NewOrder transaction contacts exactly two partitions (its home and one
// supply warehouse, §V-A1); both engines read the copy co-located with
// the home warehouse. Scaled TPC-C instead partitions the single item
// table by item id (ItemKey), which is precisely what makes its
// transactions span many partitions.
func ReplicaItemKey(server, item int) kv.Key { return key("i:", int64(server), int64(item)) }
func StockKey(w, item int) kv.Key            { return key("s:", int64(w), int64(item)) }
func WarehouseTaxKey(w int) kv.Key           { return key("wt:", int64(w)) }
func WarehouseYTDKey(w int) kv.Key           { return key("wy:", int64(w)) }
func DistrictTaxKey(w, d int) kv.Key {
	var buf [_keyBuf]byte
	return kv.Key(appendDistrictTaxKey(buf[:0], w, d))
}
func DistrictYTDKey(w, d int) kv.Key { return key("dy:", int64(w), int64(d)) }
func NextOIDKey(w, d int) kv.Key     { return key("doid:", int64(w), int64(d)) }
func CustomerKey(w, d, c int) kv.Key {
	var buf [_keyBuf]byte
	return kv.Key(appendCustomerKey(buf[:0], w, d, c))
}
func CustomerBalanceKey(w, d, c int) kv.Key  { return key("cb:", int64(w), int64(d), int64(c)) }
func OrderKey(w, d int, oid int64) kv.Key    { return key("o:", int64(w), int64(d), oid) }
func NewOrderKey(w, d int, oid int64) kv.Key { return key("no:", int64(w), int64(d), oid) }
func OrderLineKey(w, d int, oid int64, line int) kv.Key {
	return key("ol:", int64(w), int64(d), oid, int64(line))
}
func HistoryKey(w, d, c int, uid uint64) kv.Key {
	var buf [_keyBuf]byte
	out := append(appendNums(append(buf[:0], "h:"...), int64(w), int64(d), int64(c)), ':')
	return kv.Key(strconv.AppendUint(out, uid, 10))
}

// The NewOrder handler looks these two up in its read set and never needs
// them as strings.
func appendDistrictTaxKey(buf []byte, w, d int) []byte {
	return appendNums(append(buf, "dt:"...), int64(w), int64(d))
}
func appendCustomerKey(buf []byte, w, d, c int) []byte {
	return appendNums(append(buf, "c:"...), int64(w), int64(d), int64(c))
}

// _keyBuf holds any key of plausible ids; a longer one spills to the heap.
const _keyBuf = 64

// key renders prefix followed by nums, colon-separated.
func key(prefix string, nums ...int64) kv.Key {
	var buf [_keyBuf]byte
	return kv.Key(appendNums(append(buf[:0], prefix...), nums...))
}

func appendNums(out []byte, nums ...int64) []byte {
	for i, n := range nums {
		if i > 0 {
			out = append(out, ':')
		}
		out = strconv.AppendInt(out, n, 10)
	}
	return out
}

// fields splits a key into its prefix and numeric components: the first
// two land in nums (no key is routed by more), n counts them all. Every
// component must parse or the key is malformed and n is 0. The router runs
// on every key of every transaction, so nothing here touches the heap.
func fields(k kv.Key) (prefix string, nums [2]int64, n int) {
	s := string(k)
	sep := strings.IndexByte(s, ':')
	if sep < 0 {
		return "", nums, 0
	}
	prefix = s[:sep]
	for rest := s[sep+1:]; len(rest) > 0; n++ {
		v, after, ok := leadingInt(rest)
		if !ok {
			return "", [2]int64{}, 0
		}
		if n < len(nums) {
			nums[n] = v
		}
		rest = after
	}
	return prefix, nums, n
}

// leadingInt parses the component a non-empty s starts with — up to the next
// colon or the end — and returns what follows that colon. It accepts exactly
// what strconv.ParseInt(component, 10, 64) accepts: an optional sign, then
// decimal digits, within int64. The router parses ~44 keys per NewOrder, and
// ParseInt was most of its cost.
func leadingInt(s string) (v int64, after string, ok bool) {
	i, neg := 0, false
	if s[0] == '+' || s[0] == '-' {
		i, neg = 1, s[0] == '-'
	}
	const limit = 1 << 63 // magnitude of the least int64
	var u uint64
	digits := i
	for ; i < len(s) && s[i] != ':'; i++ {
		d := uint64(s[i] - '0')
		if d > 9 || u > limit/10 {
			return 0, "", false
		}
		if u = u*10 + d; u > limit {
			return 0, "", false
		}
	}
	if i == digits || u == limit && !neg {
		return 0, "", false
	}
	if i < len(s) {
		i++ // the colon
	}
	if neg {
		return -int64(u), s[i:], true
	}
	return int64(u), s[i:], true
}

// Partitioner returns the key placement for the configuration: TPC-C
// partitions by warehouse (items by item id, as the read-only item table
// is spread across servers), Scaled TPC-C partitions by item and district
// (§V-A1).
func (c Config) Partitioner() func(k kv.Key, n int) int {
	scaled := c.Scaled
	return func(k kv.Key, n int) int {
		prefix, nums, count := fields(k)
		if count == 0 {
			return kv.PartitionOf(k, n)
		}
		switch prefix {
		case "i":
			// Replicated copies "i:<server>:<item>" live on their server;
			// the scaled variant's single table "i:<item>" spreads by item.
			return int(nums[0]) % n
		case "s":
			if scaled {
				if count < 2 {
					return kv.PartitionOf(k, n)
				}
				return int(nums[1]) % n // by item
			}
			return warehouseServer(int(nums[0]), n)
		case "wt", "wy":
			return warehouseServer(int(nums[0]), n)
		case "dt", "dy", "doid", "c", "cb", "o", "no", "ol", "h":
			if scaled {
				if count < 2 {
					return kv.PartitionOf(k, n)
				}
				return int(nums[1]) % n // by district
			}
			return warehouseServer(int(nums[0]), n)
		default:
			return kv.PartitionOf(k, n)
		}
	}
}

// warehouseServer maps warehouse w (1-based) onto one of n servers.
func warehouseServer(w, n int) int {
	if w < 1 {
		return 0
	}
	return (w - 1) % n
}

// DependencyRule maps order, new-order, and order-line rows to their
// district's next-order-id key — the determinate key of those tables
// (§V-A2). Reading any of those rows at timestamp ts first forces the
// next-order-id functors at or below ts to compute, which applies the
// deferred row writes.
func (c Config) DependencyRule() func(k kv.Key) (kv.Key, bool) {
	// The rule runs on every local read; the configuration's districts get
	// their next-order-id keys built once instead of once per call.
	oid := make([][]kv.Key, c.Warehouses()+1)
	for w := 1; w < len(oid); w++ {
		oid[w] = make([]kv.Key, c.DistrictsPerWarehouse()+1)
		for d := 1; d < len(oid[w]); d++ {
			oid[w][d] = NextOIDKey(w, d)
		}
	}
	return func(k kv.Key) (kv.Key, bool) {
		prefix, nums, count := fields(k)
		switch prefix {
		case "o", "no", "ol":
			if count < 2 {
				return "", false
			}
			w, d := int(nums[0]), int(nums[1])
			if w > 0 && w < len(oid) && d > 0 && d < len(oid[w]) {
				return oid[w][d], true
			}
			return NextOIDKey(w, d), true
		default:
			return "", false
		}
	}
}

// Stock encodes the mutable stock row fields the NewOrder transaction
// maintains (TPC-C §2.4.2.2): quantity, year-to-date, order count, remote
// order count.
type Stock struct {
	Quantity  int64
	YTD       int64
	OrderCnt  int64
	RemoteCnt int64
}

// Encode renders the stock as a 32-byte value: four kv.EncodeInt64 fields.
func (s Stock) Encode() kv.Value {
	out := make(kv.Value, 32)
	binary.BigEndian.PutUint64(out[0:], uint64(s.Quantity))
	binary.BigEndian.PutUint64(out[8:], uint64(s.YTD))
	binary.BigEndian.PutUint64(out[16:], uint64(s.OrderCnt))
	binary.BigEndian.PutUint64(out[24:], uint64(s.RemoteCnt))
	return out
}

// DecodeStock parses a stock value; malformed input yields the zero stock.
func DecodeStock(v kv.Value) Stock {
	if len(v) != 32 {
		return Stock{}
	}
	q, _ := kv.DecodeInt64(v[0:8])
	y, _ := kv.DecodeInt64(v[8:16])
	o, _ := kv.DecodeInt64(v[16:24])
	r, _ := kv.DecodeInt64(v[24:32])
	return Stock{Quantity: q, YTD: y, OrderCnt: o, RemoteCnt: r}
}

// Deduct applies the TPC-C stock update rule for qty units (remote marks a
// remote warehouse order line): s_quantity decreases by qty but wraps back
// above the threshold of 10 by adding 91 when it would fall below.
func (s Stock) Deduct(qty int64, remote bool) Stock {
	if s.Quantity-qty >= 10 {
		s.Quantity -= qty
	} else {
		s.Quantity = s.Quantity - qty + 91
	}
	s.YTD += qty
	s.OrderCnt++
	if remote {
		s.RemoteCnt++
	}
	return s
}
