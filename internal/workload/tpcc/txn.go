package tpcc

import (
	"encoding/binary"
	"fmt"
	"strings"

	"alohadb/internal/calvin"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
)

// Stored procedure / handler names shared by both engines.
const (
	ProcNewOrder = "tpcc-neworder"
	ProcStock    = "tpcc-stock"
	ProcPayment  = "tpcc-payment"
)

// pct helpers: taxes and discounts are basis points (1/100 of a percent).
const _basisPoints = 10_000

// lineAmount computes one order line's amount and the order total
// adjustment exactly the same way on both engines (pure integer math, so
// Calvin's redundant executions and ALOHA's single computation agree).
func lineAmount(price int64, qty int) int64 { return price * int64(qty) }

func adjustTotal(total, wTax, dTax, disc int64) int64 {
	t := total * (_basisPoints + wTax + dTax) / _basisPoints
	return t * (_basisPoints - disc) / _basisPoints
}

// stockArg encodes the per-stock functor argument: quantity and the
// remote-warehouse flag.
func stockArg(qty int, remote bool) []byte {
	out := binary.AppendUvarint(make([]byte, 0, 4), uint64(qty))
	if remote {
		return append(out, 1)
	}
	return append(out, 0)
}

// A stock functor is its argument and nothing else, and TPC-C orders 1 to
// 10 units per line (§2.4.1.5): those twenty functors are built once and
// every order line points at one of them — functors are immutable — so a
// line costs a NewOrder its stock key and the store no functor per version.
var _stockFunctors = func() (fns [2][11]*functor.Functor) {
	for remote := range fns {
		for qty := range fns[remote] {
			fns[remote][qty] = functor.User(ProcStock, stockArg(qty, remote == 1), nil)
		}
	}
	return fns
}()

func stockFunctor(qty int, remote bool) *functor.Functor {
	if qty < 0 || qty >= len(_stockFunctors[0]) {
		return functor.User(ProcStock, stockArg(qty, remote), nil)
	}
	if remote {
		return _stockFunctors[1][qty]
	}
	return _stockFunctors[0][qty]
}

func decodeStockArg(b []byte) (qty int64, remote bool, err error) {
	q, n := binary.Uvarint(b)
	if n <= 0 || len(b) != n+1 {
		return 0, false, fmt.Errorf("tpcc: malformed stock argument")
	}
	return int64(q), b[n] == 1, nil
}

// --- ALOHA-DB side ----------------------------------------------------------

// AlohaNewOrder transforms a NewOrder into functors (§V-A2): the district
// next-order-id key carries the determinate functor whose deferred writes
// create the order, new-order, and order-line rows; each stock row gets an
// independent functor; the item existence check rides the phase-1 install
// (Requires), so an invalid item aborts the transaction with a second
// round, exactly as the paper requires.
func AlohaNewOrder(cfg Config, no NewOrder) core.Txn {
	// The read set is partition-local by construction: district tax and
	// customer rows co-locate with the next-order-id key under both
	// partitionings, while warehouse tax and item prices — immutable
	// catalog data — ride in the f-argument (see ItemPrice). The item
	// existence check still runs against the stored rows in phase 1.
	readSet := []kv.Key{
		DistrictTaxKey(no.W, no.D),
		CustomerKey(no.W, no.D, no.C),
	}
	requires := make([]kv.Key, 0, len(no.Lines))
	for _, l := range no.Lines {
		requires = append(requires, cfg.itemKeyFor(no.W, l.Item))
	}
	writes := make([]core.Write, 0, 1+len(no.Lines))
	writes = append(writes, core.Write{
		Key:     NextOIDKey(no.W, no.D),
		Functor: functor.User(ProcNewOrder, newOrderArg(no), readSet),
	})
	for _, l := range no.Lines {
		writes = append(writes, core.Write{
			Key:     StockKey(l.SupplyW, l.Item),
			Functor: stockFunctor(l.Qty, l.SupplyW != no.W),
		})
	}
	return core.Txn{Writes: writes, Requires: requires}
}

// AlohaPayment transforms a Payment into pure arithmetic functors plus a
// history insert; no user handler is needed at all (TPC-C mode only).
func AlohaPayment(p Payment) core.Txn {
	return core.Txn{Writes: []core.Write{
		{Key: WarehouseYTDKey(p.W), Functor: functor.Add(p.Amount)},
		{Key: DistrictYTDKey(p.W, p.D), Functor: functor.Add(p.Amount)},
		{Key: CustomerBalanceKey(p.W, p.D, p.C), Functor: functor.Sub(p.Amount)},
		{Key: HistoryKey(p.W, p.D, p.C, p.UID), Functor: functor.Value(kv.EncodeInt64(p.Amount))},
	}}
}

// RegisterAlohaHandlers installs the TPC-C functor handlers.
func RegisterAlohaHandlers(reg *functor.Registry) {
	reg.MustRegister(ProcNewOrder, alohaNewOrderHandler)
	reg.MustRegister(ProcStock, alohaStockHandler)
}

// _newOrderFlag is the value of every new-order row: the row's existence is
// its content, so all of them share one immutable value.
var _newOrderFlag = kv.EncodeInt64(1)

// alohaNewOrderHandler computes the determinate next-order-id functor:
// allocate the order id, price the lines, and emit the deferred writes for
// the order, new-order, and order-line rows (§IV-E key dependency).
func alohaNewOrderHandler(ctx *functor.Context) (*functor.Resolution, error) {
	var lines [_maxLines]Line
	var prices [_maxLines]int64
	no, err := decodeNewOrderArg(ctx.Arg, lines[:0], prices[:0])
	if err != nil {
		return nil, err
	}
	oid := int64(0)
	if r := ctx.Reads[ctx.Key]; r.Found {
		oid, _ = kv.DecodeInt64(r.Value)
	}
	oid++

	// The two lookup keys never leave this function: they are spelled into a
	// buffer and the map is indexed with the bytes.
	var buf [_keyBuf]byte
	readInt := func(k []byte) int64 {
		if r := ctx.Reads[kv.Key(k)]; r.Found {
			n, _ := kv.DecodeInt64(r.Value)
			return n
		}
		return 0
	}
	dTax := readInt(appendDistrictTaxKey(buf[:0], no.W, no.D))
	disc := readInt(appendCustomerKey(buf[:0], no.W, no.D, no.C))

	writes := make([]functor.DependentWrite, 0, len(no.Lines)+2)
	writes = append(writes,
		functor.DependentWrite{Key: OrderKey(no.W, no.D, oid), Value: orderHeader(no.UID, no.C, len(no.Lines))},
		functor.DependentWrite{Key: NewOrderKey(no.W, no.D, oid), Value: _newOrderFlag},
	)
	total := int64(0)
	for i, l := range no.Lines {
		amount := lineAmount(no.Prices[i], l.Qty)
		total += amount
		writes = append(writes, functor.DependentWrite{
			Key:   OrderLineKey(no.W, no.D, oid, i+1),
			Value: orderLineValue(l.Item, l.SupplyW, l.Qty, amount),
		})
	}
	_ = adjustTotal(total, no.WTax, dTax, disc) // the client-visible total
	return &functor.Resolution{
		Kind:            functor.Resolved,
		Value:           kv.EncodeInt64(oid),
		DependentWrites: writes,
	}, nil
}

// alohaStockHandler applies the TPC-C stock deduction to its own key.
func alohaStockHandler(ctx *functor.Context) (*functor.Resolution, error) {
	qty, remote, err := decodeStockArg(ctx.Arg)
	if err != nil {
		return nil, err
	}
	var s Stock
	if r := ctx.Reads[ctx.Key]; r.Found {
		s = DecodeStock(r.Value)
	}
	return functor.ValueResolution(s.Deduct(qty, remote).Encode()), nil
}

// --- Calvin side -------------------------------------------------------------

// CalvinNewOrder transforms a NewOrder for the deterministic baseline. The
// full read and write sets are declared up front; order rows are keyed by
// the client-unique UID because Calvin's no-abort determinism lets it
// pre-assign identifiers rather than allocate them transactionally
// (§V-A2). Calvin transactions never carry invalid items (its open-source
// implementation cannot abort).
func CalvinNewOrder(cfg Config, no NewOrder) calvin.Txn {
	// Calvin carries the same embedded catalog data in its arguments as
	// ALOHA-DB (see ItemPrice), so neither engine reads the immutable
	// item/warehouse-tax rows transactionally — an apples-to-apples
	// transformation choice.
	readSet := []kv.Key{
		DistrictTaxKey(no.W, no.D),
		CustomerKey(no.W, no.D, no.C),
		NextOIDKey(no.W, no.D),
	}
	writeSet := []kv.Key{NextOIDKey(no.W, no.D)}
	for _, l := range no.Lines {
		readSet = append(readSet, StockKey(l.SupplyW, l.Item))
		writeSet = append(writeSet, StockKey(l.SupplyW, l.Item))
	}
	uid := int64(no.UID)
	writeSet = append(writeSet, OrderKey(no.W, no.D, uid), NewOrderKey(no.W, no.D, uid))
	for i := range no.Lines {
		writeSet = append(writeSet, OrderLineKey(no.W, no.D, uid, i+1))
	}
	return calvin.Txn{ReadSet: readSet, WriteSet: writeSet, Proc: ProcNewOrder, Args: newOrderArg(no)}
}

// CalvinPayment transforms a Payment for the baseline.
func CalvinPayment(p Payment) calvin.Txn {
	return calvin.Txn{
		ReadSet: []kv.Key{WarehouseYTDKey(p.W), DistrictYTDKey(p.W, p.D), CustomerBalanceKey(p.W, p.D, p.C)},
		WriteSet: []kv.Key{
			WarehouseYTDKey(p.W), DistrictYTDKey(p.W, p.D),
			CustomerBalanceKey(p.W, p.D, p.C), HistoryKey(p.W, p.D, p.C, p.UID),
		},
		Proc: ProcPayment,
		Args: binary.AppendUvarint(nil, uint64(p.Amount)),
	}
}

// RegisterCalvinProcs installs the TPC-C stored procedures.
func RegisterCalvinProcs(r *calvin.ProcRegistry) {
	r.MustRegister(ProcNewOrder, calvinNewOrderProc)
	r.MustRegister(ProcPayment, calvinPaymentProc)
}

func calvinNewOrderProc(reads map[kv.Key]kv.Value, args []byte, writeSet []kv.Key) map[kv.Key]kv.Value {
	no, err := decodeNewOrderArg(args, nil, nil)
	if err != nil {
		return nil
	}
	readInt := func(k kv.Key) int64 {
		if v, ok := reads[k]; ok {
			n, _ := kv.DecodeInt64(v)
			return n
		}
		return 0
	}
	oid := readInt(NextOIDKey(no.W, no.D)) + 1
	dTax := readInt(DistrictTaxKey(no.W, no.D))
	disc := readInt(CustomerKey(no.W, no.D, no.C))

	out := make(map[kv.Key]kv.Value, len(writeSet))
	total := int64(0)
	lineAmounts := make([]int64, len(no.Lines))
	for i, l := range no.Lines {
		amount := lineAmount(no.Prices[i], l.Qty)
		lineAmounts[i] = amount
		total += amount
	}
	_ = adjustTotal(total, no.WTax, dTax, disc)

	uid := int64(no.UID)
	out[NextOIDKey(no.W, no.D)] = kv.EncodeInt64(oid)
	out[OrderKey(no.W, no.D, uid)] = orderHeader(no.UID, no.C, len(no.Lines))
	out[NewOrderKey(no.W, no.D, uid)] = kv.EncodeInt64(1)
	for i, l := range no.Lines {
		var s Stock
		if v, ok := reads[StockKey(l.SupplyW, l.Item)]; ok {
			s = DecodeStock(v)
		}
		out[StockKey(l.SupplyW, l.Item)] = s.Deduct(int64(l.Qty), l.SupplyW != no.W).Encode()
		out[OrderLineKey(no.W, no.D, uid, i+1)] = orderLineValue(l.Item, l.SupplyW, l.Qty, lineAmounts[i])
	}
	return out
}

func calvinPaymentProc(reads map[kv.Key]kv.Value, args []byte, writeSet []kv.Key) map[kv.Key]kv.Value {
	amtU, n := binary.Uvarint(args)
	if n <= 0 {
		return nil
	}
	amt := int64(amtU)
	out := make(map[kv.Key]kv.Value, len(writeSet))
	for _, k := range writeSet {
		prefix := string(k)
		switch {
		case strings.HasPrefix(prefix, "wy:"), strings.HasPrefix(prefix, "dy:"):
			n := int64(0)
			if v, ok := reads[k]; ok {
				n, _ = kv.DecodeInt64(v)
			}
			out[k] = kv.EncodeInt64(n + amt)
		case strings.HasPrefix(prefix, "cb:"):
			n := int64(0)
			if v, ok := reads[k]; ok {
				n, _ = kv.DecodeInt64(v)
			}
			out[k] = kv.EncodeInt64(n - amt)
		case strings.HasPrefix(prefix, "h:"):
			out[k] = kv.EncodeInt64(amt)
		}
	}
	return out
}
