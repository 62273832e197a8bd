package mvstore

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"
	"unsafe"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// perOp measures f, which performs batch operations on the key set it is
// handed, with testing.AllocsPerRun and returns the allocations per
// operation. AllocsPerRun calls f twice (once to warm up) and rounds down to
// whole objects per call: each call gets its own half of keys, and the batch
// is what gives an amortised budget its fraction.
//
// AllocsPerRun counts every malloc of the process, and a budget with no
// headroom fails on one that is not f's. A collection inside the window is
// where they come from: it wakes the scavenger to return what it freed (a
// previous -count iteration's store), whose sleep can grow a P's timer heap,
// and can start an M for its workers — a malloc each. So the garbage of what
// ran before is collected and scavenged first, and no collection starts
// inside the window.
func perOp(batch int, keys []kv.Key, f func(keys []kv.Key)) float64 {
	debug.FreeOSMemory()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	half, call := len(keys)/2, 0
	return testing.AllocsPerRun(1, func() {
		f(keys[call*half : (call+1)*half])
		call++
	}) / float64(batch)
}

// TestAllocationBudgets pins the layout's cost in heap objects: at most two
// per version (the record and, amortised, its share of a grown array; a
// key's first version is embedded in its chain), none per seal, none for an
// outcome — it lives in the record.
func TestAllocationBudgets(t *testing.T) {
	const n = 4096
	keys := make([]kv.Key, 4*n)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("k:%d", i))
	}
	written, unwritten := keys[:2*n], keys[2*n:]
	rowKeys := make([]kv.Key, 2*n)
	for i := range rowKeys {
		rowKeys[i] = kv.Key(fmt.Sprintf("row:%d", i))
	}
	// A new key also grows the store's key index now and then, a few
	// hundredths of an object per key that belong to no version.
	const index = 0.1
	add := functor.Add(1)
	s := New()

	if got := perOp(n, written, func(keys []kv.Key) {
		for _, k := range keys {
			c, _, _ := s.Stage(k, ts(1, 1, 0), add)
			c.Seal(tstamp.End(1))
		}
	}); got > 2+index {
		t.Errorf("fresh-key Put+Seal allocates %.2f objects, budget 2", got)
	}

	// One more version per epoch on each of those chains, 1 → 65 versions:
	// out of the embedded array and through six doublings.
	if got := perOp(64*n, written, func(keys []kv.Key) {
		for e := tstamp.Epoch(2); e < 66; e++ {
			for _, k := range keys {
				c, _, _ := s.Stage(k, ts(e, 1, 0), add)
				c.Seal(tstamp.End(e))
			}
		}
	}); got > 2 {
		t.Errorf("Put+Seal on an existing chain allocates %.2f objects amortised, budget 2", got)
	}

	// A born-final write to a fresh key is a row: bytes in a slab and a
	// slot, and of heap objects only its share of their growth. Reading it
	// allocates nothing.
	val := kv.Value("row")
	if got := perOp(n, rowKeys, func(keys []kv.Key) {
		for _, k := range keys {
			s.PutFinal(k, ts(1, 1, 0), functor.Resolved, val, false)
		}
	}); got > index {
		t.Errorf("born-final write to a fresh key allocates %.2f objects, budget %.1f", got, index)
	}
	if got := perOp(n, rowKeys, func(keys []kv.Key) {
		for _, k := range keys {
			if _, row, ok := s.Read(k, tstamp.Max); !ok || len(row.Value) != len(val) {
				t.Fatalf("Read(%q) = %+v %v", k, row, ok)
			}
		}
	}); got != 0 {
		t.Errorf("reading a row allocates %.2f objects, budget 0", got)
	}

	// The same write to a key that must have a chain is the chain and nothing
	// else: the record is embedded and the record holds the value.
	if got := perOp(n, unwritten, func(keys []kv.Key) {
		for _, k := range keys {
			s.testChain(k).putResolved(ts(1, 1, 0), functor.Resolved, val)
		}
	}); got > 1+index {
		t.Errorf("pre-resolved install of a fresh key allocates %.2f objects, budget 1", got)
	}

	// 64 more on each of those chains: the record, plus the seven arrays a
	// chain doubles through on the way (a block and its slots each time).
	const growth = 14.0 / 64
	if got := perOp(64*n, unwritten, func(keys []kv.Key) {
		for e := tstamp.Epoch(2); e < 66; e++ {
			for _, k := range keys {
				s.Chain(k).putResolved(ts(e, 1, 0), functor.Resolved, val)
			}
		}
	}); got > 1+growth {
		t.Errorf("pre-resolved install on an existing chain allocates %.2f objects amortised, budget 1 + %.2f of array growth", got, growth)
	}

	// Resolving allocates nothing unless the outcome carries more than a
	// value, and reading an outcome never does.
	var recs []*Record
	for _, k := range written[:n] {
		recs = append(recs, s.Chain(k).View()...)
	}
	plain, sink := functor.ValueResolution(val), 0
	if got := testing.AllocsPerRun(1, func() {
		for _, rec := range recs {
			rec.Resolve(plain)
			kind, value, _ := rec.Outcome()
			sink += int(kind) + len(value)
		}
	}); got != 0 {
		t.Errorf("Resolve + Outcome over %d records allocates %.0f objects, budget 0", len(recs), got)
	}

	if got := perOp(n, written, func(keys []kv.Key) {
		for _, k := range keys {
			s.Chain(k).Seal(tstamp.Max)
		}
	}); got != 0 {
		t.Errorf("Seal with nothing staged allocates %.2f objects, budget 0", got)
	}

	// A seal that publishes several staged records in place.
	for _, k := range written {
		for seq := uint32(1); seq <= 3; seq++ {
			s.Put(k, ts(70, seq, 0), add)
		}
	}
	if got := perOp(n, written, func(keys []kv.Key) {
		for _, k := range keys {
			s.Chain(k).Seal(tstamp.End(70))
		}
	}); got != 0 {
		t.Errorf("Seal of staged records allocates %.2f objects, budget 0", got)
	}
}

// TestRecordAddressStable: the pointer Put returns stays the record for
// good. The processor queue, second-round aborts and resolve-once all hold
// it across seals, array replacements and compactions of the key.
func TestRecordAddressStable(t *testing.T) {
	s := New()
	first, err := s.Put("k", ts(1, 1, 0), functor.Add(1))
	if err != nil {
		t.Fatal(err)
	}
	second, _ := s.Put("k", ts(1, 2, 0), functor.Add(1))
	s.Seal("k", tstamp.End(1))
	for e := tstamp.Epoch(2); e < 1002; e++ {
		if _, err := s.Put("k", ts(e, 1, 0), functor.Value(nil)); err != nil {
			t.Fatal(err)
		}
		s.Seal("k", tstamp.End(e))
	}
	for _, rec := range []*Record{first, second} {
		res := functor.ValueResolution(kv.EncodeInt64(int64(rec.Version)))
		if !rec.Resolve(res) {
			t.Fatalf("record %v already resolved", rec.Version)
		}
		got, ok := s.Latest("k", rec.Version)
		if !ok || got != rec {
			t.Fatalf("Latest(%v) = %p %v, want the record Put returned (%p)", rec.Version, got, ok, rec)
		}
		if kind, value, _ := got.Outcome(); kind != functor.Resolved || !bytes.Equal(value, res.Value) {
			t.Fatalf("Latest(%v) holds %v %q, want the value just resolved", rec.Version, kind, value)
		}
	}
	if len(s.View("k")) != 1002 {
		t.Fatalf("view has %d records, want 1002", len(s.View("k")))
	}
}

// TestChainSizeClass pins a chain — a key written once is nothing else — to
// exactly the allocator's 128-byte class, and a record on its own to the
// 64-byte one; one more word would move every key of the store to the
// 144-byte class and every later version to the 80-byte one.
func TestChainSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Chain{}); got != 128 {
		t.Errorf("Chain is %d bytes, want 128", got)
	}
	if got := unsafe.Sizeof(Record{}); got > 64 {
		t.Errorf("Record is %d bytes, want at most 64", got)
	}
}
