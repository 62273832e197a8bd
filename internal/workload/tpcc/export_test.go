package tpcc

import (
	"encoding/binary"

	"alohadb/internal/kv"
)

// OrderLineAmount decodes the amount field of an order-line row.
func OrderLineAmount(v kv.Value) (int64, bool) {
	b := v
	for i := 0; i < 3; i++ {
		_, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
	}
	amt, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, false
	}
	return int64(amt), true
}
