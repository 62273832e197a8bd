package mvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// The steps below are the ones that can turn a row into a chain by asking
// for a record of it (a history hands out fresh ones); with put, putFinal,
// drop, rangeAll, compact and fold (model_test.go) they are every way a key
// changes tier.

func (h *modelHarness) at(v tstamp.Timestamp) {
	h.t.Helper()
	rec, ok := h.s.At(h.k, v)
	if _, want := h.m.recs[v]; ok != want {
		h.t.Fatalf("At(%q, %v) ok = %v, model %v", h.k, v, ok, want)
	}
	if ok {
		h.asked()
		h.saw(v, rec)
	}
	h.check()
}

func (h *modelHarness) latest(max tstamp.Timestamp) {
	h.t.Helper()
	sealed := h.m.sorted(true)
	i := sort.Search(len(sealed), func(i int) bool { return sealed[i] > max })
	rec, ok := h.s.Latest(h.k, max)
	if ok != (i > 0) || (ok && rec.Version != sealed[i-1]) {
		h.t.Fatalf("Latest(%q, %v) = %v ok=%v, model sealed %v", h.k, max, rec, ok, sealed)
	}
	if ok {
		h.asked()
		h.saw(rec.Version, rec)
	}
	h.check()
}

// chain asks for the key's chain, which thaws a row or a history and
// creates nothing.
func (h *modelHarness) chain() {
	h.t.Helper()
	_, known := h.keys[h.k]
	if c := h.s.Chain(h.k); (c != nil) != known {
		h.t.Fatalf("Chain(%q) = %p, model holds the key: %v", h.k, c, known)
	}
	if known {
		h.chained()
	}
	h.check()
}

// tagTwins returns n keys whose slots carry one tag and whose probes start
// at one position of a 16-slot index: a lookup of any of them walks over the
// others, told apart by the key bytes in the slab alone.
var tagTwins = sync.OnceValue(func() []kv.Key {
	out := []kv.Key{"twin:0"}
	want := mix(kv.Hash(out[0]))
	for i, buf := 1, []byte("twin:"); len(out) < 3; i++ {
		k := kv.Key(strconv.AppendInt(buf[:5], int64(i), 10))
		if m := mix(kv.Hash(k)); slotTag(m) == slotTag(want) && m&15 == want&15 {
			out = append(out, k)
		}
	}
	return out
})

// TestRowsAgainstModel walks a key through every way into, out of and past
// the row tier and compares the store with the model after every step.
func TestRowsAgainstModel(t *testing.T) {
	v1, v2 := ts(1, 1, 0), ts(1, 2, 0)

	t.Run("born final, read, and thawed by what needs a record", func(t *testing.T) {
		h := newModelHarness(t)
		// One key per way of thawing; "left" stays a row to the end.
		for _, k := range []kv.Key{"put", "at", "latest", "view", "chain", "final", "advance", "range", "left", "gone"} {
			h.on(k).putFinal(v1, functor.Resolved, kv.Value("born "+k), k == "advance")
		}
		h.on("gone").putFinal(v2, functor.ResolvedDeleted, nil, false) // a row, then its tombstone version: thawed
		h.on("put").put(v2, functor.Add(1))
		h.on("at").at(v2) // misses: still a row
		if !h.m.row {
			t.Fatal("an At that missed thawed the row")
		}
		h.at(v1)
		h.on("latest").latest(v1.Prev()) // misses
		if !h.m.row {
			t.Fatal("a Latest below the row thawed it")
		}
		h.latest(tstamp.Max)
		h.on("view").hold()
		h.on("chain").chain()
		h.on("final").putFinal(v1, functor.Resolved, kv.Value("again"), false) // duplicate delivery
		if !h.m.row {
			t.Fatal("a duplicate delivery thawed the row")
		}
		h.putFinal(v2, functor.Resolved, kv.Value("second"), false)
		h.on("advance").advance(v2)
		h.check()
		if c := h.s.Chain("advance"); c.Watermark() != v2 {
			t.Fatalf("watermark %v after a settled row at %v was raised to %v", c.Watermark(), v1, v2)
		}
		h.on("never").chain() // asking about a key nobody wrote creates nothing
		h.at(v1)
		h.latest(tstamp.Max)
		h.hold()
		h.advance(v1)
		h.checkAll()
		if st := h.s.Stats(); st.Rows != 2 || st.Thaws != 8 {
			t.Fatalf("Stats %+v, want the rows of \"range\" and \"left\" and 8 thaws", st)
		}
		// A thawed record holds the row's value where it lay, and an append
		// through it cannot reach the next row.
		rec, _ := h.s.At("view", v1)
		_, value, _ := rec.Outcome()
		if cap(value) != len(value) {
			t.Fatalf("a thawed value has %d bytes of the slab behind it", cap(value)-len(value))
		}
		h.rangeAll()
		h.checkAll()
	})

	t.Run("drop and re-insert reuse the slot", func(t *testing.T) {
		h := newModelHarness(t)
		h.s = NewWithShards(1)
		for i := 0; i < 8; i++ {
			h.on(kv.Key(fmt.Sprintf("k:%d", i))).putFinal(v1, functor.Resolved, kv.EncodeInt64(int64(i)), true)
		}
		l := &h.s.shards[0].rows
		used := l.used
		for round := 0; round < 40; round++ {
			h.on(kv.Key(fmt.Sprintf("k:%d", round%8))).drop()
			h.drop() // a second drop finds nothing
			h.putFinal(ts(2, uint32(round+1), 0), functor.Resolved, kv.EncodeInt64(int64(round)), false)
			h.checkAll()
			if l.used != used || len(l.index) != 16 {
				t.Fatalf("round %d: dropping and re-inserting one of 8 keys left %d slots used of %d, were %d of 16", round, l.used, len(l.index), used)
			}
		}
		h.on("k:3").drop()
		h.put(v2, functor.Add(1)) // a dropped key comes back as a chain
		h.checkAll()
	})

	t.Run("index growth with tombstones present", func(t *testing.T) {
		h := newModelHarness(t)
		h.s = NewWithShards(1)
		l := &h.s.shards[0].rows
		size, doublings := 0, 0
		for i := 0; i < 1500; i++ {
			value := kv.Value(fmt.Sprintf("%040d", i))
			h.on(kv.Key(fmt.Sprintf("grow:%d", i))).putFinal(ts(1, uint32(i+1), 0), functor.Resolved, value, i%2 == 0)
			// Leave tombstones behind: every third key is dropped or thawed.
			switch i % 6 {
			case 2:
				h.drop()
			case 5:
				h.put(ts(2, 1, 0), functor.Add(1))
			}
			if len(l.index) != size {
				if size != 0 && len(l.index) == 2*size {
					doublings++
				}
				size = len(l.index)
				h.checkAll()
			}
		}
		h.checkAll()
		if doublings < 6 || len(l.slabs) < 4 {
			t.Fatalf("the index doubled %d times over %d slabs: the test no longer grows what it means to", doublings, len(l.slabs))
		}
	})

	t.Run("keys whose tags and positions collide", func(t *testing.T) {
		h := newModelHarness(t)
		h.s = NewWithShards(1)
		twins := tagTwins()
		for i, k := range twins {
			h.on(k).putFinal(ts(1, uint32(i+1), 0), functor.Resolved, kv.Value(k), false)
		}
		h.checkAll()
		h.on(twins[0]).drop() // a tombstone at the head of the others' probes
		h.checkAll()
		h.on(twins[1]).put(v2, functor.Add(1)) // and one thawed in the middle
		h.checkAll()
		h.on(twins[0]).putFinal(v2, functor.Resolved, kv.Value("back"), true)
		h.checkAll()
		if len(h.s.shards[0].rows.index) != 16 {
			t.Fatal("the index grew: the twins no longer share a position")
		}
	})

	t.Run("a computed chain folds back into a row, and thaws again", func(t *testing.T) {
		h := newModelHarness(t)
		v3 := ts(2, 1, 0)
		h.on("sum").put(v1, functor.Add(1))
		h.fold() // staged: no
		h.seal(tstamp.End(1))
		h.fold() // not computed: no
		h.resolve(v1, valueRes)
		h.fold() // above the watermark: no
		h.advance(v1)
		h.fold()
		if !h.m.row || h.s.Stats().Folds != 1 {
			t.Fatalf("a computed single version did not fold: %+v", h.s.Stats())
		}
		h.put(v2, functor.Add(1)) // the next install thaws it
		h.seal(tstamp.End(1))
		h.resolve(v2, valueRes)
		h.advance(v2)
		h.fold() // two versions: a history
		h.compact(tstamp.End(1))
		if !h.m.row {
			t.Fatal("a history compacted to one plain version is not a row")
		}
		h.put(v3, functor.Add(1))
		h.seal(tstamp.End(2))
		h.resolve(v3, valueRes)
		h.compact(tstamp.End(2)) // cut short by the watermark: owed
		h.fold()
		h.advance(tstamp.End(2))
		h.compact(tstamp.End(2)) // paid, as core's payOwed would: the version below goes
		h.fold()
		if !h.m.row {
			t.Fatal("a chain that paid its compaction did not fold")
		}

		// Outcomes a row cannot hold fold into histories of one version.
		for i, res := range []*functor.Resolution{abortRes, writesRes, functor.SkipResolution(), functor.DeleteResolution()} {
			h.on(kv.Key(fmt.Sprintf("outcome:%d", i))).put(v1, functor.Add(1))
			h.seal(tstamp.End(1))
			h.resolve(v1, res)
			h.advance(v1)
			h.fold()
		}
		// A deferred write's chain folds too, with the value it was born with.
		h.on("marker").put(v1, functor.DepMarker("det"))
		h.putFinal(v1, functor.Resolved, kv.Value("deferred"), false)
		h.seal(tstamp.End(1))
		h.advance(v1)
		h.fold()
		// Too big for a row: a history.
		h.on("big").put(v1, functor.Add(1))
		h.seal(tstamp.End(1))
		h.resolve(v1, functor.ValueResolution(bytes.Repeat([]byte{'x'}, _maxRow)))
		h.advance(v1)
		h.fold()
		if h.m.row || !h.m.history {
			t.Fatal("an over-cap value folded into a row")
		}
		h.checkAll()
		h.rangeAll()
		h.checkAll()
	})

	t.Run("a settled history folds, thaws without copying, and folds in place", func(t *testing.T) {
		h := newModelHarness(t)
		h.s = NewWithShards(1)
		// runOf is the run k's history holds, or its chain's.
		runOf := func(k kv.Key) run {
			if c, hr, _ := h.tier(k); c != nil {
				return c.cur.Load().run()
			} else {
				return hr
			}
		}
		write := func(v tstamp.Timestamp, res *functor.Resolution) {
			h.put(v, functor.Add(1))
			h.seal(tstamp.Max)
			h.resolve(v, res)
			h.advance(v)
		}
		h.on("stock").putFinal(v1, functor.Resolved, kv.Value("loaded"), true)
		write(ts(2, 1, 0), valueRes)
		h.fold()
		if !h.m.history || h.s.Stats().Histories != 1 {
			t.Fatalf("a settled chain of two versions did not fold into a history: %+v", h.s.Stats())
		}
		h.hold() // fresh records of the history, held across what follows
		buffers, first := 1, runOf("stock")
		for e := tstamp.Epoch(3); e <= 40; e++ {
			before := runOf("stock")
			res := valueRes
			if e%5 == 0 {
				res = abortRes // a read at the newest version falls through it
			}
			h.put(ts(e, 1, 0), functor.Add(1)) // thaws
			if r := runOf("stock"); r.len() != before.len()-1 || &r.ents[0] != &before.ents[0] || &r.data[0] != &before.data[0] {
				t.Fatalf("epoch %d: the thaw copied the history (%d entries at %p, was %d at %p)", e, r.len(), &r.ents[0], before.len(), &before.ents[0])
			}
			h.fold() // settled below a staged write: no
			h.seal(tstamp.Max)
			h.resolve(ts(e, 1, 0), res)
			h.advance(ts(e, 1, 0))
			h.fold()
			if after := runOf("stock"); &after.ents[0] != &before.ents[0] {
				buffers++
			}
		}
		t.Logf("39 folds of a growing history took %d buffers", buffers)
		if buffers > 12 {
			t.Fatalf("39 folds of a growing history took %d buffers: it is copied at every fold", buffers)
		}
		if h.s.Stats().Folds < 39 || &first.ents[0] == &runOf("stock").ents[0] {
			t.Fatalf("the history never grew out of its first buffer: %+v", h.s.Stats())
		}
		// A straggler sealed below the history takes the run back into
		// records; settled again, the key folds again.
		h.put(ts(39, 7, 1), functor.Add(1))
		h.seal(tstamp.Max)
		h.resolve(ts(39, 7, 1), writesRes)
		h.advance(ts(40, 1, 0))
		h.fold()
		// A determinate key's history keeps every outcome's extras.
		h.on("det")
		for e := tstamp.Epoch(1); e <= 12; e++ {
			write(ts(e, 2, 0), []*functor.Resolution{writesRes, abortRes, valueRes}[e%3])
		}
		h.freeze()
		h.fold()
		h.chain() // thawed by asking for the chain
		h.fold()
		h.compact(ts(6, 1, 0)) // a history is compacted where it lies
		h.fold()
		h.checkAll()
		h.rangeAll()
		h.checkAll()
	})

	t.Run("a version written below a thawed history's newest is not appended over it", func(t *testing.T) {
		// A thaw leaves the newest version's entry and bytes where they lie,
		// past the cut, and the record it builds reads them there.
		h := newModelHarness(t)
		compute := func(v tstamp.Timestamp, value string) {
			h.put(v, functor.Add(1))
			h.seal(tstamp.Max)
			h.resolve(v, functor.ValueResolution(kv.Value(value)))
			h.advance(v)
			h.fold() // the second fold leaves the history room to grow in place
		}
		h.on("k").putFinal(ts(1, 1, 0), functor.Resolved, kv.Value("one"), true)
		compute(ts(3, 1, 0), "two")
		compute(ts(5, 1, 0), "new")
		h.putFinal(ts(4, 1, 0), functor.Resolved, kv.Value("old"), false) // thaws; lands below 5.1
		h.fold()
		if !h.m.history {
			t.Fatal("the key did not fold again")
		}
		h.checkAll()
	})

	t.Run("a key too long for a row's length field", func(t *testing.T) {
		h := newModelHarness(t)
		h.s = NewWithShards(1)
		long := kv.Key(bytes.Repeat([]byte{'K'}, 70_000))
		h.on(long).putFinal(v1, functor.Resolved, kv.Value("v"), true) // over the row cap: a chain
		if h.m.row {
			t.Fatal("the model took a 70 000-byte key for a row")
		}
		h.on("short").putFinal(v1, functor.Resolved, kv.Value("w"), true) // written behind it in the slab
		h.on(long).put(v2, functor.Add(1))
		h.seal(tstamp.End(1))
		h.resolve(v2, valueRes)
		h.advance(v2)
		h.compact(tstamp.End(1))
		h.fold()                  // one final version, but no row holds the key: a history
		for i := 0; i < 40; i++ { // grow the index past the long key
			h.on(kv.Key(fmt.Sprintf("k:%d", i))).putFinal(v1, functor.Resolved, nil, false)
		}
		h.on(long).drop()
		h.put(ts(2, 1, 0), functor.Add(1))
		h.checkAll()
		if st := h.s.Stats(); st.RowBytes < 2*70_000 {
			t.Fatalf("Stats %+v: the long key's entries are not in the row log", st)
		}
	})

	t.Run("a row over the cap takes the chain path", func(t *testing.T) {
		h := newModelHarness(t)
		big := bytes.Repeat([]byte{'x'}, _maxRow)
		h.on("big").putFinal(v1, functor.Resolved, big, true) // key + value is over by len("big")
		if h.m.row {
			t.Fatal("the model took an over-cap write for a row")
		}
		h.on("fits").putFinal(v1, functor.Resolved, big[:_maxRow-len("fits")], true)
		if !h.m.row {
			t.Fatal("a write of exactly the cap is not a row")
		}
		h.on("empty").putFinal(v1, functor.Resolved, nil, false)
		h.on("").putFinal(v1, functor.ResolvedDeleted, nil, false) // the empty key is a key
		h.checkAll()
		h.rangeAll()
	})
}

// rowOpKeys is the key set of the random harness: few enough to collide in
// every way (the twins included), one long enough that its rows straddle
// slabs.
var rowOpKeys = sync.OnceValue(func() []kv.Key {
	keys := append([]kv.Key(nil), tagTwins()...)
	for i := 0; i < 24; i++ {
		keys = append(keys, kv.Key(fmt.Sprintf("r:%d", i)))
	}
	return append(keys, kv.Key(bytes.Repeat([]byte{'L'}, 300)))
})

// rowOps is what a run of runRowOps did: the store's Stats at the end, how
// many versions the ops froze, how many histories of more than one version
// they folded, and how many frozen determinate versions answered with their
// value alone (their writes landed) and with their writes (kept).
type rowOps struct {
	st                             Stats
	froze, histories, landed, kept int
}

// runRowOps reads data three bytes at a time — operation, key, argument —
// and applies each to a one-shard store and to the model, comparing every
// key after every step.
func runRowOps(t *testing.T, data []byte) rowOps {
	h := newModelHarness(t)
	h.s = NewWithShards(1)
	keys := rowOpKeys()
	froze := 0
	for ; len(data) >= 3; data = data[3:] {
		op, arg := data[0]%20, data[2]
		h.on(keys[int(data[1])%len(keys)])
		v := ts(tstamp.Epoch(arg%3+1), uint32(arg/3%8+1), 0)
		value := kv.Value(fmt.Sprintf("%s=%d", h.k[:min(len(h.k), 8)], arg))
		switch op {
		case 0, 1, 2:
			h.putFinal(v, functor.Resolved, value, arg&1 == 0)
		case 3:
			h.putFinal(v, functor.ResolvedDeleted, nil, false)
		case 4:
			h.latest(v)
		case 5:
			h.put(v, functor.Add(1))
		case 6:
			h.at(v)
		case 7:
			h.hold()
			h.held = h.held[:0] // held views are TestLayoutAgainstModel's subject
		case 8, 9:
			h.drop()
		case 10:
			h.rangeAll()
		case 11:
			h.seal(tstamp.End(tstamp.Epoch(arg%3 + 1)))
		case 12:
			if all := h.m.sorted(false); len(all) > 0 {
				res := []*functor.Resolution{valueRes, abortRes, writesRes, functor.DeleteResolution(), functor.SkipResolution()}
				h.resolve(all[int(arg)%len(all)], res[int(arg)%len(res)])
			}
		case 13:
			// Raise the watermark over the resolved sealed prefix, as the
			// engine does, then compact somewhere inside it.
			var wm tstamp.Timestamp
			for _, sv := range h.m.sorted(true) {
				if h.m.recs[sv].won == nil {
					break
				}
				wm = sv
			}
			h.advance(wm)
			h.compact(v)
		case 14:
			h.putFinal(v, functor.Resolved, bytes.Repeat([]byte{arg}, _maxRow), false)
		case 15:
			h.chain()
		case 16:
			h.fold()
		case 17:
			// History: ten versions of one epoch (on a server of their
			// own, so they may land below versions sealed earlier),
			// computed in order with every shape of outcome, then frozen.
			e := tstamp.Epoch(arg%3 + 1)
			for seq := uint32(1); seq <= 10; seq++ {
				h.put(ts(e, seq, 1), functor.Add(1))
			}
			h.seal(tstamp.End(e))
			res := []*functor.Resolution{valueRes, abortRes, writesRes, functor.DeleteResolution(), functor.SkipResolution(), functor.ValueResolution(value)}
			next := int(arg)
			h.compute(res, func() int { next++; return next })
			froze += h.freeze()
		case 18:
			// Settle: everything staged is sealed and computed in order,
			// and the key folds, into a history when it has more than one
			// version.
			h.seal(tstamp.Max)
			res := []*functor.Resolution{valueRes, abortRes, writesRes, functor.DeleteResolution(), functor.ValueResolution(value)}
			next := int(arg)
			h.compute(res, func() int { next++; return next })
			h.fold()
		case 19:
			// A determinate key settles: its versions' writes land on
			// every other one, or on none (arg%3 == 2), frozen and folded
			// into a history, thawed and folded again.
			h.determinate(tstamp.Epoch(arg%3+1), int(arg%4)+2, func(v tstamp.Timestamp) bool {
				return arg%3 != 2 && (uint32(v.Epoch())+uint32(arg)+uint32(v))%2 == 0
			})
		}
		h.checkAll()
	}
	return rowOps{st: h.s.Stats(), froze: froze, histories: h.histories, landed: h.landed, kept: h.kept}
}

// TestStoreRowsRandomOps drives the harness from seeded random bytes.
func TestStoreRowsRandomOps(t *testing.T) {
	var sum rowOps
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 3*500)
		rand.New(rand.NewSource(seed)).Read(data)
		r := runRowOps(t, data)
		sum.st.Thaws, sum.st.Folds = sum.st.Thaws+r.st.Thaws, sum.st.Folds+r.st.Folds
		sum.froze, sum.histories, sum.landed, sum.kept = sum.froze+r.froze, sum.histories+r.histories, sum.landed+r.landed, sum.kept+r.kept
	}
	t.Logf("%d thaws, %d folds (%d into histories of more than one version), %d versions frozen; %d frozen determinate versions landed, %d kept their writes",
		sum.st.Thaws, sum.st.Folds, sum.histories, sum.froze, sum.landed, sum.kept)
	if sum.st.Thaws == 0 || sum.st.Folds == 0 || sum.froze == 0 || sum.histories == 0 || sum.landed == 0 || sum.kept == 0 {
		t.Fatalf("the random ops no longer move keys both ways, fold histories, freeze history and freeze determinate versions landed and not: %+v", sum)
	}
}

// FuzzStoreRows is the same harness driven by the fuzzer's bytes.
func FuzzStoreRows(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 3, 1, 8, 3, 0, 0, 3, 7, 10, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 8, 0, 0, 6, 1, 1, 0, 0, 9, 14, 1, 0})
	// History frozen, a second epoch frozen above it, one sealed below it,
	// and compactions into it.
	f.Add([]byte{17, 3, 1, 17, 3, 2, 13, 3, 4, 17, 3, 0, 13, 3, 8, 6, 3, 1})
	// A loaded row written, settled into a history, read, written again
	// (thawed without copying; a fold with the write staged must wait),
	// settled again, a straggler below it, and settled once more; then
	// compacted and walked.
	f.Add([]byte{0, 5, 0, 5, 5, 4, 18, 5, 0, 6, 5, 4, 4, 5, 5, 5, 5, 7, 16, 5, 0, 18, 5, 1, 5, 5, 1, 18, 5, 2, 13, 5, 7, 10, 5, 0})
	// A determinate key settled with its writes landed on every other
	// version, thawed and folded again; written once more with none landed,
	// and settled again.
	f.Add([]byte{19, 5, 0, 5, 5, 7, 19, 5, 2, 6, 5, 4})
	seeded := make([]byte, 3*200)
	rand.New(rand.NewSource(1)).Read(seeded)
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, data []byte) {
		runRowOps(t, data[:min(len(data), 3*400)])
	})
}

// TestRowsConcurrent has born-final writers (every delivery duplicated),
// installs, a processor stand-in that computes, compacts and folds what was
// installed, and readers, all on the same keys. Keys are in four groups, by
// i%4:
//
//	0: an install thaws the row as soon as one delivery is in, racing the
//	   duplicate; computed, its two versions fold into a history, racing the
//	   duplicate too, and on every other key an install races the fold
//	1: an install thaws the row once both deliveries are in; computed and
//	   compacted to one version, it folds back into a row, and on every
//	   other key an install races the fold
//	2: an install comes first, and its deliveries (a deferred write of a
//	   later version) race the stand-in's compute of it or, on every other
//	   key, its fold
//	3: the deliveries alone: a row
//
// A reader that knows a key has been written must find it — as the row, the
// history or the chain — never in none of them; exactly one delivery of each
// key is fresh, and no install or delivery is lost to a fold. Run under
// -race it also shows that slab and run bytes handed to a reader are never
// written again.
func TestRowsConcurrent(t *testing.T) {
	const (
		rounds = 20
		nkeys  = 256
	)
	v1, v2, v3 := ts(1, 1, 0), ts(2, 1, 0), ts(3, 1, 0)
	computed := kv.EncodeInt64(-1) // what the processor stand-in computes
	keys, vals := make([]kv.Key, nkeys), make([]kv.Value, nkeys)
	for i := range keys {
		keys[i], vals[i] = kv.Key(fmt.Sprintf("k:%d", i)), kv.EncodeInt64(int64(i))
	}
	// delivery and install are the versions key i's deliveries and install
	// write.
	delivery := func(i int) tstamp.Timestamp {
		if i%4 == 2 {
			return v2
		}
		return v1
	}
	install := func(i int) tstamp.Timestamp {
		if i%4 == 2 {
			return v1
		}
		return v2
	}
	// check says what is wrong with a version of key i that a reader found,
	// as a chain's latest or as the row.
	check := func(i int, version tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value) string {
		switch {
		case version == delivery(i) && kind == functor.Resolved && bytes.Equal(value, vals[i]):
		case version == install(i) && i%4 != 3 && (kind == 0 || kind == functor.Resolved && bytes.Equal(value, computed)):
		default:
			return fmt.Sprintf("%q holds %v %v %x", keys[i], version, kind, value)
		}
		return ""
	}
	var folds, raced int64
	for round := 0; round < rounds; round++ {
		s := NewWithShards(2)
		delivered := make([]atomic.Int32, nkeys)
		installed, computing := make([]atomic.Bool, nkeys), make([]atomic.Bool, nkeys)
		var fresh, folded, foldedFirst atomic.Int64
		type work struct {
			i   int
			c   *Chain
			rec *Record
		}
		const installs = 3 * nkeys / 4
		queue := make(chan work, installs) // the installer never waits
		var writers, others sync.WaitGroup
		stop := make(chan struct{})
		wait := func(done func() bool) bool {
			for !done() {
				if t.Failed() {
					return false
				}
				runtime.Gosched()
			}
			return true
		}
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func() {
				defer writers.Done()
				for i, k := range keys {
					if i%8 == 2 && !wait(installed[i].Load) || i%8 == 6 && !wait(computing[i].Load) {
						return
					}
					if _, ok := s.PutFinal(k, delivery(i), functor.Resolved, vals[i], i%4 != 2 && i%8 < 4); ok {
						fresh.Add(1)
					}
					delivered[i].Add(1)
				}
			}()
		}
		writers.Add(1)
		go func() { // installs v1 on group 2, and v2 on group 0 after one delivery and on group 1 after two
			defer writers.Done()
			defer close(queue)
			for left := installs; left > 0 && !t.Failed(); runtime.Gosched() {
				for i, k := range keys {
					if i%4 == 3 || installed[i].Load() || i%4 < 2 && delivered[i].Load() <= int32(i%4) {
						continue
					}
					c, rec, err := s.Stage(k, install(i), functor.Add(1))
					if err != nil {
						t.Errorf("Stage(%q): %v", k, err)
						return
					}
					installed[i].Store(true)
					queue <- work{i, c, rec}
					left--
				}
			}
		}()
		writers.Add(1)
		go func() { // computes what was installed and folds, as the processor does
			defer writers.Done()
			for w := range queue {
				bound := tstamp.End(w.rec.Version.Epoch())
				w.c.Seal(bound)
				w.rec.ResolveValue(functor.Resolved, computed)
				w.c.AdvanceWatermark(bound)
				if w.i%4 == 1 {
					w.c.Compact(bound)
				}
				computing[w.i].Store(true)
				if !s.Fold(keys[w.i], w.c) {
					continue
				}
				folded.Add(1)
				if w.i%4 == 2 {
					foldedFirst.Add(1)
				}
			}
		}()
		writers.Add(1)
		go func() { // installs v3 on every other key of groups 0 and 1, racing the folds
			defer writers.Done()
			for i := 1; i < nkeys; i++ {
				if i%8 != 1 && i%8 != 4 {
					continue
				}
				if !wait(installed[i].Load) {
					return
				}
				if _, err := s.Put(keys[i], v3, functor.Add(1)); err != nil {
					t.Errorf("Put(%q, %v): %v", keys[i], v3, err)
					return
				}
			}
		}()
		for r := 0; r < 2; r++ {
			others.Add(1)
			go func() {
				defer others.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i, k := range keys {
						if delivered[i].Load() == 0 {
							continue
						}
						var bad string
						switch c, row, ok := s.Read(k, tstamp.Max); {
						case c != nil:
							if rec := c.Latest(tstamp.Max); rec == nil {
								bad = fmt.Sprintf("%q has a chain with nothing readable", k)
							} else {
								kind, value, _ := rec.Outcome()
								bad = check(i, rec.Version, kind, value)
							}
						case ok:
							bad = check(i, row.Version, row.Kind, row.Value)
						default:
							bad = fmt.Sprintf("%q was written and is neither a row nor a chain", k)
						}
						if bad != "" {
							t.Error(bad)
							return
						}
					}
				}
			}()
		}
		writers.Wait()
		close(stop)
		others.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if got := fresh.Load(); got != nkeys {
			t.Fatalf("round %d: %d of %d deliveries were fresh, want %d", round, got, 2*nkeys, nkeys)
		}
		if s.Len() != nkeys {
			t.Fatalf("round %d: %d keys, want %d", round, s.Len(), nkeys)
		}
		if st := s.Stats(); int64(st.Folds) != folded.Load() {
			t.Fatalf("round %d: Stats %+v, %d folds reported", round, st, folded.Load())
		}
		folds, raced = folds+folded.Load(), raced+foldedFirst.Load()
		for i, k := range keys {
			c, row, isRow := s.Read(k, tstamp.Max)
			if i%4 == 3 || i%8 == 5 { // nothing came after the deliveries or the fold: a row
				want := v1
				if i%4 == 1 {
					want = v2
				}
				if !isRow || check(i, row.Version, row.Kind, row.Value) != "" || row.Version != want {
					t.Fatalf("round %d: %q is %p %+v, want a row", round, k, c, row)
				}
				continue
			}
			if i%8 == 0 { // nothing came after the fold: a history
				if c != nil || !isRow || row.Version != v2 {
					t.Fatalf("round %d: %q is %p %+v, want a history up to %v", round, k, c, row, v2)
				}
			} else if c == nil {
				t.Fatalf("round %d: %q is the row %+v, want a chain", round, k, row)
			}
			for _, v := range []tstamp.Timestamp{v1, v2} {
				rec, _ := s.At(k, v)
				if rec == nil {
					if i%4 == 1 && v == v1 {
						continue // compacted
					}
					t.Fatalf("round %d: %q@%v is lost", round, k, v)
				}
				kind, value, _ := rec.Outcome()
				if bad := check(i, v, kind, value); bad != "" || kind == 0 {
					t.Fatalf("round %d: %s", round, bad)
				}
			}
			if (i%8 == 1 || i%8 == 4) && c.At(v3) == nil {
				t.Fatalf("round %d: the install of %q@%v is lost", round, k, v3)
			}
		}
	}
	t.Logf("%d folds in %d rounds, %d of them ahead of a deferred write", folds, rounds, raced)
}

// benchRowKeys are n distinct keys of a TPC-C order line's length.
func benchRowKeys(n int) []kv.Key {
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("ol:1:%02d:%08d", i%10, i))
	}
	return keys
}

// _rowBenchWarm rows are in the store before the clock starts, so the slabs
// are past their small sizes and the index past its first doublings.
const _rowBenchWarm = 1 << 16

// BenchmarkStoreRowPut is a born-final write to a fresh key in steady state.
// What it allocates is a 1 MB slab every ~25 k rows and an index doubling,
// which per operation rounds to nothing (scripts/alloc-guard.sh requires 0).
func BenchmarkStoreRowPut(b *testing.B) {
	s, keys, val := New(), benchRowKeys(_rowBenchWarm+b.N), kv.Value("a TPC-C order line, about so long")
	for i, k := range keys[:_rowBenchWarm] {
		s.PutFinal(k, ts(1, uint32(i+1), 0), functor.Resolved, val, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := range keys[_rowBenchWarm:] {
		s.PutFinal(k, ts(2, uint32(i+1), 0), functor.Resolved, val, false)
	}
}

// BenchmarkStoreRowRead reads a row where it lies.
func BenchmarkStoreRowRead(b *testing.B) {
	s, keys, val := New(), benchRowKeys(_rowBenchWarm), kv.Value("a TPC-C order line, about so long")
	for i, k := range keys {
		s.PutFinal(k, ts(1, uint32(i+1), 0), functor.Resolved, val, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		_, row, _ := s.Read(keys[i%_rowBenchWarm], tstamp.Max)
		n += len(row.Value)
	}
	if n != b.N*len(val) {
		b.Fatalf("read %d value bytes, want %d", n, b.N*len(val))
	}
}

// TestWriteHoldsOffFold pins what makes a fold safe, which TestRowsConcurrent
// can only hit now and then: a writer that has found a key's chain and waits
// for its mutex holds the shard's lock, so Fold cannot let the chain go
// before the write is in. After it, the fold finds a staged record or a
// version above the watermark and refuses, or — a settled load — folds the
// chain with the write in it. The chain is one version or a settled history
// of two, which a fold would make a row or a history.
func TestWriteHoldsOffFold(t *testing.T) {
	v0, v1, v2 := ts(1, 1, 0), ts(1, 2, 0), ts(2, 1, 0)
	for _, versions := range []int{1, 2} {
		for _, tc := range []struct {
			name    string
			write   func(s *Store)
			settles bool // the write leaves the chain settled: the fold may go ahead after it
		}{
			{"Stage", func(s *Store) { s.Stage("k", v2, functor.Add(1)) }, false},
			{"PutFinal", func(s *Store) { s.PutFinal("k", v2, functor.Resolved, kv.Value("w"), false) }, false},
			{"PutFinal settled", func(s *Store) { s.PutFinal("k", v2, functor.Resolved, kv.Value("w"), true) }, true},
		} {
			name := fmt.Sprintf("%s over %d versions", tc.name, versions)
			s := NewWithShards(1)
			var c *Chain
			for _, v := range []tstamp.Timestamp{v0, v1}[2-versions:] {
				ch, rec, err := s.Stage("k", v, functor.Add(1))
				if err != nil {
					t.Fatal(err)
				}
				c = ch
				c.Seal(v2)
				rec.ResolveValue(functor.Resolved, kv.EncodeInt64(int64(v)))
				c.AdvanceWatermark(v)
			}
			c.mu.Lock() // the chain is busy
			wrote := make(chan struct{})
			go func() {
				tc.write(s)
				close(wrote)
			}()
			// Wait until the writer holds the shard's lock for 100 ms on end.
			sh := &s.shards[0]
			for held, start := 0, time.Now(); held < 100; time.Sleep(time.Millisecond) {
				if !sh.mu.TryLock() {
					held++
					continue
				}
				sh.mu.Unlock()
				if held = 0; time.Since(start) > 10*time.Second {
					t.Fatalf("%s: a writer waiting for the chain does not hold the shard's lock", name)
				}
			}
			folded := make(chan bool)
			go func() { folded <- s.Fold("k", c) }()
			c.mu.Unlock()
			<-wrote
			if f := <-folded; f && !tc.settles || !f && (s.Chain("k") != c || c.At(v2) == nil) {
				t.Fatalf("%s: a fold let the chain go under a write (folded %v): Stats %+v", name, f, s.Stats())
			}
			// A staged write is not readable yet; a born-final one is.
			readable := versions + 1
			if tc.name == "Stage" {
				readable = versions
			}
			if _, ok := s.At("k", v2); !ok || len(s.View("k")) != readable {
				t.Fatalf("%s: the write of %v is lost to the fold: %v", name, v2, versionsOf(s.View("k")))
			}
		}
	}
}

// TestHistoryReadersRace has a stand-in for the processor write each key
// once an epoch and fold it, freezing as it goes, so every write thaws the
// history the fold before left, while readers hold what they were handed —
// a row a history answered, the fresh records of a history's View, a chain
// a reader thawed and its History — and check it again later: a held
// version keeps its value, whatever the key has gone through since. Run
// under -race it also shows that no run byte a reader was handed is written
// again by a thaw, a freeze or a fold.
func TestHistoryReadersRace(t *testing.T) {
	const (
		epochs = 300
		held   = 64
	)
	keys := []kv.Key{"h:0", "h:1", "h:2", "h:3"}
	s := NewWithShards(1)
	valueOf := func(v tstamp.Timestamp) kv.Value { return kv.EncodeInt64(int64(v)) }
	var done atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			type version struct {
				v     tstamp.Timestamp
				value kv.Value
			}
			var kept []version
			keep := func(v tstamp.Timestamp, value kv.Value) bool {
				if !bytes.Equal(value, valueOf(v)) {
					t.Errorf("%v reads %x, want %x", v, value, valueOf(v))
					return false
				}
				if len(kept) < held {
					kept = append(kept, version{v, value})
				} else {
					kept[int(v)%held] = version{v, value}
				}
				return true
			}
			for i := 0; !done.Load(); i++ {
				for _, k := range keys {
					if _, row, ok := s.Read(k, tstamp.Max); ok && !keep(row.Version, row.Value) {
						return
					}
					for _, rec := range s.View(k) {
						if kind, value, _ := rec.Outcome(); kind != 0 && !keep(rec.Version, value) {
							return
						}
					}
					if i%8 == 0 { // thaw it now and then, as a caller of Chain does
						h := s.Chain(k).History()
						for j := 0; j < h.Len(); j++ {
							if kind, value := h.Outcome(j); kind != 0 && !keep(h.Version(j), value) {
								return
							}
						}
					}
				}
				for _, x := range kept {
					if !bytes.Equal(x.value, valueOf(x.v)) {
						t.Errorf("a held %v changed to %x", x.v, x.value)
						return
					}
				}
			}
		}()
	}
	var histories int
	for e := tstamp.Epoch(1); e <= epochs && !t.Failed(); e++ {
		for _, k := range keys {
			v := ts(e, 1, 0)
			c, rec, err := s.Stage(k, v, functor.Add(1))
			if err != nil {
				t.Fatal(err)
			}
			c.Seal(tstamp.End(e))
			rec.ResolveValue(functor.Resolved, valueOf(v))
			c.AdvanceWatermark(v)
			c.Freeze()
			if s.Fold(k, c) {
				histories++
			}
		}
	}
	done.Store(true)
	readers.Wait()
	for _, k := range keys {
		if view := s.View(k); len(view) != epochs {
			t.Fatalf("%q holds %d versions, want %d", k, len(view), epochs)
		}
	}
	t.Logf("%d folds into a history of %d writes", histories, epochs*len(keys))
	if histories < epochs*len(keys)/2 {
		t.Fatalf("only %d of %d writes folded into a history", histories, epochs*len(keys))
	}
}
