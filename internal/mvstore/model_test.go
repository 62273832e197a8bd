package mvstore

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// TestConcurrentModelEquivalence runs random interleaved inserts, seals,
// and reads against the store while maintaining a reference model, then
// verifies every Latest/At answer over the sealed state matches
// the model exactly.
func TestConcurrentModelEquivalence(t *testing.T) {
	const (
		rounds  = 30
		writers = 4
		perW    = 40
	)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < rounds; round++ {
		s := New()
		var (
			mu    sync.Mutex
			model = make(map[tstamp.Timestamp]int64) // version -> value
		)
		epochs := tstamp.Epoch(rng.Intn(3) + 1)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(server uint16, seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < perW; i++ {
					v := tstamp.Make(tstamp.Epoch(r.Intn(int(epochs))+1), uint32(r.Intn(64)+1), server)
					val := r.Int63()
					if _, err := s.Put("k", v, functor.Value(kv.EncodeInt64(val))); err == nil {
						mu.Lock()
						model[v] = val
						mu.Unlock()
					}
				}
			}(uint16(w), int64(round*100+w))
		}
		// A concurrent sealer publishes progressively.
		stop := make(chan struct{})
		var sealer sync.WaitGroup
		sealer.Add(1)
		go func() {
			defer sealer.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.SealAll(tstamp.Max)
				}
			}
		}()
		wg.Wait()
		close(stop)
		sealer.Wait()
		s.SealAll(tstamp.Max)

		// Resolve everything so Latest answers carry values.
		versions := make([]tstamp.Timestamp, 0, len(model))
		for v := range model {
			versions = append(versions, v)
		}
		sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
		for _, v := range versions {
			rec, ok := s.At("k", v)
			if !ok {
				t.Fatalf("round %d: version %v missing", round, v)
			}
			rec.Resolve(functor.ValueResolution(kv.EncodeInt64(model[v])))
		}
		view := s.View("k")
		if len(view) != len(model) {
			t.Fatalf("round %d: view has %d records, model %d", round, len(view), len(model))
		}
		// Probe Latest at random points.
		for probe := 0; probe < 50; probe++ {
			max := tstamp.Make(tstamp.Epoch(rng.Intn(int(epochs)+1)), uint32(rng.Intn(70)), uint16(rng.Intn(writers+1)))
			i := sort.Search(len(versions), func(i int) bool { return versions[i] > max })
			rec, ok := s.Latest("k", max)
			if i == 0 {
				if ok {
					t.Fatalf("round %d: Latest(%v) = %v, want miss", round, max, rec.Version)
				}
				continue
			}
			want := versions[i-1]
			if !ok || rec.Version != want {
				t.Fatalf("round %d: Latest(%v) = %v ok=%v, want %v", round, max, rec, ok, want)
			}
			if got, _ := kv.DecodeInt64(rec.Resolution().Value); got != model[want] {
				t.Fatalf("round %d: value mismatch at %v", round, want)
			}
		}
	}
}

// chainModel is the sequential reference for one key: a map of live
// versions with their sealed flag and the outcome that won them, and the
// value watermark. Every mutation of the layout (embedded first record,
// in-place seal, growth, merge, compaction, pre-resolved install) must leave
// the key answering exactly like it — and so must the tier the key lives in:
// row and history say the store is expected to hold the key as a row or as a
// history, which changes nothing the model answers, only which accessors may
// be used to ask without thawing it.
type chainModel struct {
	recs      map[tstamp.Timestamp]*modelRec
	watermark tstamp.Timestamp
	row       bool
	history   bool
	// owed is the epoch of the bound of the last compaction the watermark
	// cut short, zero when none did (Chain.Owed).
	owed tstamp.Epoch
	// frozen is how many of the oldest sealed versions are in the chain's
	// frozen run: every version of a history.
	frozen int
	// ptrs is the record the store handed back for each live version that
	// is a record; its address must never change. A frozen version has
	// none: the store hands out a fresh one each time.
	ptrs map[tstamp.Timestamp]*Record
}

func newChainModel() *chainModel {
	return &chainModel{recs: map[tstamp.Timestamp]*modelRec{}, ptrs: map[tstamp.Timestamp]*Record{}}
}

type modelRec struct {
	sealed bool
	won    *functor.Resolution // the outcome installed first; nil while unresolved
	// decoded: the version has been frozen, so what the store holds of its
	// outcome is a copy decoded from the run, equal to kept() but not won.
	decoded bool
	// landed: won's dependent writes were marked landed (Record.Land) while
	// the version was a record.
	landed bool
}

func (r *modelRec) kind() functor.ResolutionKind {
	if r.won == nil {
		return 0
	}
	return r.won.Kind
}

// kept is the outcome the store holds of the version: the one that won it,
// without its dependent writes once it has been frozen with them landed and
// no reason — the dependent keys' rows hold them, and the run keeps the
// value alone.
func (r *modelRec) kept() *functor.Resolution {
	if r.decoded && r.landed && r.won.Reason == "" && len(r.won.DependentWrites) > 0 {
		return &functor.Resolution{Kind: r.won.Kind, Value: r.won.Value}
	}
	return r.won
}

func (m *chainModel) sorted(sealedOnly bool) []tstamp.Timestamp {
	var out []tstamp.Timestamp
	for v, r := range m.recs {
		if r.sealed || !sealedOnly {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *chainModel) seal(bound tstamp.Timestamp) {
	newest := m.newestFrozen()
	for v, r := range m.recs {
		if v < bound && !r.sealed {
			r.sealed = true
			if v < newest {
				// A straggler below frozen history: the run goes back to
				// records to merge with it.
				m.frozen = 0
			}
		}
	}
}

// newestFrozen is the newest frozen version, zero when none is.
func (m *chainModel) newestFrozen() tstamp.Timestamp {
	if m.frozen == 0 {
		return 0
	}
	return m.sorted(true)[m.frozen-1]
}

// isFrozen says whether v is a version in the frozen run.
func (m *chainModel) isFrozen(v tstamp.Timestamp) bool {
	return m.frozen > 0 && m.recs[v] != nil && m.recs[v].sealed && v <= m.newestFrozen()
}

// freeze is Chain.Freeze: the oldest sealed records that are final and at
// or below the watermark, all but the newest sealed one, move into the run
// when they are at least _freezeMin and half the sealed records.
func (m *chainModel) freeze() int {
	if m.row || m.history {
		return 0
	}
	sealed := m.sorted(true)
	recs := sealed[m.frozen:]
	k := 0
	for k < len(recs)-1 && recs[k] <= m.watermark && m.recs[recs[k]].won != nil {
		k++
	}
	if k < max(_freezeMin, len(recs)/2) {
		return 0
	}
	for _, v := range recs[:k] {
		delete(m.ptrs, v)
		m.recs[v].decoded = true
	}
	m.frozen += k
	return k
}

func (m *chainModel) advance(v tstamp.Timestamp) {
	if v > m.watermark {
		m.watermark = v
	}
}

// compact is Chain.Compact, and for a history CompactKey: a chain with a
// version above its watermark, staged or sealed, is cut short there and owes
// the bound; any other key holds final versions only and is compacted at the
// bound, a history always keeping its newest version.
func (m *chainModel) compact(bound tstamp.Timestamp) int {
	behind := false
	for v, r := range m.recs {
		behind = behind || !r.sealed || v > m.watermark
	}
	if !m.row && !m.history && len(m.recs) > 0 {
		m.owed = 0
		if behind && bound > m.watermark {
			m.owed = bound.Epoch()
		}
	}
	if behind && bound > m.watermark {
		bound = m.watermark
	}
	sealed := m.sorted(true)
	i := sort.Search(len(sealed), func(i int) bool { return sealed[i] >= bound })
	keepFrom := i
	for j := i - 1; j >= 0; j-- {
		if k := m.recs[sealed[j]].kind(); k == 0 || k == functor.Resolved || k == functor.ResolvedDeleted {
			keepFrom = j
			break
		}
	}
	if m.history {
		keepFrom = min(keepFrom, len(sealed)-1)
	}
	for _, v := range sealed[:keepFrom] {
		delete(m.recs, v)
		delete(m.ptrs, v)
	}
	m.frozen = max(0, m.frozen-keepFrom)
	return keepFrom
}

// thaw is what the store does to a row or a history that something writes
// or asks a chain of: a chain, owing nothing, whose records hold a history's
// newest version and whose run holds the rest.
func (m *chainModel) thaw() {
	if m.history {
		m.frozen = len(m.recs) - 1
	}
	m.row, m.history, m.owed = false, false, 0
}

// foldable says what Store.Fold(k, c) must make k, a chain: a row when its
// whole history is one sealed version whose outcome is a plain value or
// tombstone, at or below the watermark, and small enough for a row; a
// history when every version is sealed, final and at or below the
// watermark; else nothing. Nothing may be owed.
func (m *chainModel) foldable(k kv.Key) (row, hist bool) {
	if m.row || m.history || m.owed != 0 || len(m.recs) == 0 {
		return false, false
	}
	for v, r := range m.recs {
		if !r.sealed || v > m.watermark || r.won == nil {
			return false, false
		}
	}
	if len(m.recs) == 1 && m.frozen == 0 && m.rowHolds(k) {
		return true, false
	}
	return false, true
}

// rowHolds says whether a row holds k's one version: its outcome, as the
// store keeps it, a plain value or tombstone that fits.
func (m *chainModel) rowHolds(k kv.Key) bool {
	for _, r := range m.recs {
		won := r.kept()
		return len(m.recs) == 1 && keptBehindExt(won) == nil && (won.Kind == functor.Resolved || won.Kind == functor.ResolvedDeleted) &&
			len(k)+len(won.Value) <= _maxRow
	}
	return false
}

// modelHarness applies each operation to a store and to the model of every
// key the store should hold, and compares every answer the store can give.
// The chain-level steps address the key selected with on ("k" to begin with).
type modelHarness struct {
	t    *testing.T
	s    *Store
	keys map[kv.Key]*chainModel // the keys the store holds
	k    kv.Key
	m    *chainModel // k's model; not in keys while nothing has created k
	// held are views readers took earlier with the versions they showed:
	// whatever the chain does next, a held view must keep showing them.
	held []heldView
	// histories counts the folds into a history of more than one version.
	histories int
	// landed and kept count the frozen determinate versions the determinate
	// step found answering with their value alone, their writes having
	// landed, and with their writes, which had not.
	landed, kept int
}

type heldView struct {
	view     []*Record
	versions []tstamp.Timestamp
}

func newModelHarness(t *testing.T) *modelHarness {
	h := &modelHarness{t: t, s: New(), keys: map[kv.Key]*chainModel{}}
	return h.on("k")
}

// on selects the key the next steps address.
func (h *modelHarness) on(k kv.Key) *modelHarness {
	h.k, h.m = k, h.keys[k]
	if h.m == nil {
		h.m = newChainModel()
	}
	return h
}

// chained records that the step just taken left k with a chain: created if
// the key was new, thawed if it was a row or a history.
func (h *modelHarness) chained() {
	h.keys[h.k] = h.m
	if h.m.row || h.m.history {
		h.m.thaw()
	}
}

// asked records that the step just taken asked for a record of k: that
// thaws a row, and hands out a fresh record of a history's version.
func (h *modelHarness) asked() {
	if !h.m.history {
		h.chained()
	}
}

func (h *modelHarness) put(v tstamp.Timestamp, fn *functor.Functor) {
	h.t.Helper()
	rec, err := h.s.Put(h.k, v, fn)
	h.chained()
	if _, dup := h.m.recs[v]; dup != (err == ErrVersionExists) {
		h.t.Fatalf("Put(%v): err %v, model duplicate %v", v, err, dup)
	}
	h.saw(v, rec)
	if err == nil {
		h.m.recs[v] = &modelRec{}
	}
	h.check()
}

// saw compares rec with the record seen at version v before, if any.
func (h *modelHarness) saw(v tstamp.Timestamp, rec *Record) {
	h.t.Helper()
	if h.m.isFrozen(v) {
		return
	}
	if p, ok := h.m.ptrs[v]; ok && p != rec {
		h.t.Fatalf("%q@%v is record %p, was %p", h.k, v, rec, p)
	}
	h.m.ptrs[v] = rec
}

func (h *modelHarness) putResolved(v tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value) {
	h.t.Helper()
	rec, fresh := h.s.testChain(h.k).putResolved(v, kind, value)
	h.chained()
	h.saw(v, rec)
	h.tookFinal(v, fresh, kind, value, false)
	h.check()
}

// putFinal is the store-level born-final write: a row for a key never
// written, PutResolved on the chain of any other.
func (h *modelHarness) putFinal(v tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value, settled bool) {
	h.t.Helper()
	_, known := h.keys[h.k]
	c, fresh := h.s.PutFinal(h.k, v, kind, value, settled)
	switch _, dup := h.m.recs[v]; {
	case !known && len(h.k)+len(value) <= _maxRow:
		h.keys[h.k], h.m.row = h.m, true
	case (h.m.row || h.m.history) && dup:
		// a duplicate delivery leaves the row or history alone
	default:
		h.chained()
	}
	if (c == nil) != (h.m.row || h.m.history) {
		h.t.Fatalf("PutFinal(%q@%v) returned chain %p, model row %v, history %v", h.k, v, c, h.m.row, h.m.history)
	}
	h.tookFinal(v, fresh, kind, value, settled)
	h.check()
}

func (h *modelHarness) tookFinal(v tstamp.Timestamp, fresh bool, kind functor.ResolutionKind, value kv.Value, settled bool) {
	h.t.Helper()
	if _, dup := h.m.recs[v]; dup == fresh {
		h.t.Fatalf("born-final %q@%v: fresh %v, model duplicate %v", h.k, v, fresh, dup)
	}
	won := &functor.Resolution{Kind: kind, Value: value}
	if fresh {
		h.m.recs[v] = &modelRec{won: won}
		h.m.seal(v + 1)
		if settled {
			h.m.advance(v)
		}
	} else if m := h.m.recs[v]; m.won == nil {
		m.won = won // the existing record takes the outcome, once
	}
}

func (h *modelHarness) seal(bound tstamp.Timestamp) {
	h.t.Helper()
	h.s.Seal(h.k, bound)
	h.m.seal(bound)
	h.check()
}

func (h *modelHarness) resolve(v tstamp.Timestamp, res *functor.Resolution) {
	h.t.Helper()
	rec, ok := h.s.At(h.k, v)
	if !ok {
		h.t.Fatalf("At(%v) missing", v)
	}
	h.asked()
	h.saw(v, rec)
	if won := rec.Resolve(res); won != (h.m.recs[v].won == nil) {
		h.t.Fatalf("Resolve(%v) won = %v, model kind %v", v, won, h.m.recs[v].kind())
	} else if won {
		h.m.recs[v].won = res
	}
	h.check()
}

func (h *modelHarness) advance(v tstamp.Timestamp) {
	h.s.AdvanceWatermark(h.k, v)
	if _, known := h.keys[h.k]; known {
		h.chained()
		h.m.advance(v)
	}
}

// fold asks the store to fold k's chain and requires it to exactly when the
// model says the chain has settled into a row or a history. A folded key's
// watermark is its newest version, what the store holds of a history's
// outcomes is decoded from bytes, and the record the next thaw builds for it
// is a new one.
func (h *modelHarness) fold() {
	h.t.Helper()
	c, _, _ := h.s.Read(h.k, 0) // the chain, without thawing a row
	var row, hist bool
	if c != nil {
		row, hist = h.m.foldable(h.k)
	}
	if got := c != nil && h.s.Fold(h.k, c); got != (row || hist) {
		h.t.Fatalf("Fold(%q) = %v, model row %v, history %v (%d records, watermark %v, owed %v)", h.k, got, row, hist, len(h.m.recs), h.m.watermark, h.m.owed)
	}
	if row || hist {
		var newest tstamp.Timestamp
		for v, r := range h.m.recs {
			newest = max(newest, v)
			r.decoded = r.decoded || hist
		}
		h.m.watermark = newest
		h.m.row, h.m.history = row, hist
		if hist {
			h.m.frozen = len(h.m.recs)
			if h.m.frozen > 1 {
				h.histories++
			}
		}
		clear(h.m.ptrs)
		if h.s.Fold(h.k, c) {
			h.t.Fatalf("Fold(%q) folded a chain the store had let go", h.k)
		}
	}
	h.check()
}

// compact compacts every key the store holds, one CompactKey each, and
// requires of each the count the model drops and, afterwards, the fold
// rule's shape: a chain stays a chain and a row a row; a history left with
// one version a row holds becomes that row, any other stays a history.
func (h *modelHarness) compact(bound tstamp.Timestamp) {
	h.t.Helper()
	keys := slices.Sorted(maps.Keys(h.keys))
	for _, k := range keys {
		m := h.keys[k]
		want := m.compact(bound)
		if got := h.s.CompactKey(k, bound); got != want {
			h.t.Fatalf("CompactKey(%q, %v) removed %d records, model %d", k, bound, got, want)
		}
		if m.history && m.rowHolds(k) {
			m.row, m.history, m.frozen = true, false, 0
		}
	}
	h.check()
}

// freeze asks k's chain, if it has one, to freeze its history below the
// watermark, and requires it to move exactly what the model says.
func (h *modelHarness) freeze() int {
	h.t.Helper()
	c, _, _ := h.s.Read(h.k, 0) // the chain, without thawing a row
	got, want := 0, 0
	if c != nil {
		got, want = c.Freeze(), h.m.freeze()
	}
	if got != want {
		h.t.Fatalf("Freeze(%q) moved %d versions, model %d", h.k, got, want)
	}
	h.check()
	return got
}

// compute resolves k's sealed, unresolved versions in ascending order, as
// the processor does, each with an outcome drawn from res by pick, and raises
// the watermark over the resolved sealed prefix.
func (h *modelHarness) compute(res []*functor.Resolution, pick func() int) {
	h.t.Helper()
	var wm tstamp.Timestamp
	for _, v := range h.m.sorted(true) {
		if h.m.recs[v].won == nil {
			h.resolve(v, res[pick()%len(res)])
		}
		wm = v
	}
	h.advance(wm)
}

// determinate writes versions of epoch e (on a server of their own) and
// settles the key, as the processor does with a determinate key: everything
// staged is sealed, every version not yet resolved is computed in order to a
// value with dependent writes of its own, and the writes of those versions
// land picks are marked landed, as the computation that won a record marks
// them once every owner applied them; then the chain freezes and folds into
// a history. Frozen, a landed version must answer At with its value alone
// and any other with its writes; and a history thawed and folded again must
// publish the very bytes it had, in the same buffer (run.appendRecords takes
// back the newest version's entry where it lies, so its outcome must encode
// as it did).
func (h *modelHarness) determinate(e tstamp.Epoch, versions int, land func(v tstamp.Timestamp) bool) {
	h.t.Helper()
	for seq := uint32(1); seq <= uint32(versions); seq++ {
		h.put(ts(e, seq, 2), functor.User("det", nil, nil))
	}
	h.seal(tstamp.Max)
	var wm tstamp.Timestamp
	for _, v := range h.m.sorted(true) {
		if r := h.m.recs[v]; r.won == nil {
			res := &functor.Resolution{Kind: functor.Resolved, Value: kv.Value(fmt.Sprintf("oid@%v", v)), DependentWrites: []functor.DependentWrite{
				{Key: kv.Key(fmt.Sprintf("o:%v", v)), Value: kv.Value("order")},
				{Key: kv.Key(fmt.Sprintf("ol:%v:1", v)), Value: kv.Value("line")},
			}}
			h.resolve(v, res)
			if land(v) {
				h.m.ptrs[v].Land()
				r.landed = true
			}
		}
		wm = v
	}
	h.advance(wm)
	h.freeze()
	h.fold()
	if !h.m.history {
		return
	}
	for v, r := range h.m.recs {
		if len(r.won.DependentWrites) == 0 || r.won.Reason != "" {
			continue
		}
		rec, _ := h.s.At(h.k, v)
		res := rec.Resolution()
		want := len(r.won.DependentWrites)
		if r.landed {
			want = 0
			h.landed++
		} else {
			h.kept++
		}
		if len(res.DependentWrites) != want || !bytes.Equal(res.Value, r.won.Value) {
			h.t.Fatalf("At(%q, %v) of the history = %+v, want its value and %d writes (landed %v)", h.k, v, res, want, r.landed)
		}
	}
	_, was, _ := h.tier(h.k)
	if was.len() < 2 {
		return
	}
	ents, data := slices.Clone(was.ents), slices.Clone(was.data[was.ents[0].off:])
	h.chain()
	h.fold()
	_, again, _ := h.tier(h.k)
	if !slices.Equal(again.ents, ents) || !bytes.Equal(again.data[again.ents[0].off:], data) || &again.ents[0] != &was.ents[0] {
		h.t.Fatalf("%q thawed and folded again publishes %v and %q, was %v and %q", h.k, again.ents, again.data[again.ents[0].off:], ents, data)
	}
}

// hold keeps the current view the way a reader in the middle of a chain
// walk does.
func (h *modelHarness) hold() {
	view := h.s.View(h.k)
	if _, known := h.keys[h.k]; known {
		h.asked()
	}
	h.held = append(h.held, heldView{view: view, versions: versionsOf(view)})
}

// drop removes k, whichever tier it lives in.
func (h *modelHarness) drop() {
	h.t.Helper()
	_, known := h.keys[h.k]
	if got := h.s.Drop(h.k); got != known {
		h.t.Fatalf("Drop(%q) = %v, model holds the key: %v", h.k, got, known)
	}
	delete(h.keys, h.k)
	h.on(h.k)
	h.check()
}

// rangeAll walks Range, which hands out every key's one live chain and so
// thaws every row.
func (h *modelHarness) rangeAll() {
	h.t.Helper()
	seen := map[kv.Key]bool{}
	h.s.Range(func(k kv.Key, c *Chain) bool {
		if seen[k] || h.keys[k] == nil || c != h.s.Chain(k) {
			h.t.Fatalf("Range yields %q (again: %v, in model: %v) with chain %p, store has %p", k, seen[k], h.keys[k] != nil, c, h.s.Chain(k))
		}
		seen[k] = true
		return true
	})
	if len(seen) != len(h.keys) {
		h.t.Fatalf("Range yields %d keys, model %d", len(seen), len(h.keys))
	}
	for _, m := range h.keys {
		if m.row || m.history {
			m.thaw()
		}
	}
	h.check()
}

// check compares the selected key in full and the store's key set and
// tiers; checkAll does so for every key.
func (h *modelHarness) check() {
	h.t.Helper()
	h.checkKey(h.k, h.m)
	h.checkStore()
}

func (h *modelHarness) checkAll() {
	h.t.Helper()
	for k, m := range h.keys {
		h.checkKey(k, m)
	}
	h.checkStore()
}

// tier reports where the store keeps k: the chain its entry names, the
// history it names, or the row its entry is.
func (h *modelHarness) tier(k kv.Key) (chain *Chain, hist run, row []byte) {
	h.t.Helper()
	sh, m := h.s.locate(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	switch pos, e := sh.rows.find(k, m); {
	case pos < 0:
	case isChain(e):
		if chain = sh.chain(e); chain == nil {
			h.t.Fatalf("the entry of %q names chain %d, which is free", k, entryWord(e))
		}
	case isHistory(e):
		if hist = sh.history(e); hist.len() == 0 {
			h.t.Fatalf("the entry of %q names history %d, which is free", k, entryWord(e))
		}
	default:
		row = e
	}
	return chain, hist, row
}

// checkStore compares the key set (Len, RangeKeys) and walks every shard's
// row log: every live entry is the one its key's probe finds, no key has two,
// every chain or history entry names a chain or history no other entry
// names, and the index keeps the room its probes rely on.
func (h *modelHarness) checkStore() {
	h.t.Helper()
	for _, hv := range h.held {
		if got := versionsOf(hv.view); !slices.Equal(got, hv.versions) {
			h.t.Fatalf("a held view changed: %v, was %v", got, hv.versions)
		}
	}
	if got := h.s.Len(); got != len(h.keys) {
		h.t.Fatalf("Len = %d, model %d", got, len(h.keys))
	}
	n := 0
	h.s.RangeKeys(func(k kv.Key) bool {
		if h.keys[k] == nil {
			h.t.Fatalf("RangeKeys yields %q, which the model does not hold", k)
		}
		n++
		return true
	})
	if n != len(h.keys) {
		h.t.Fatalf("RangeKeys yields %d keys, model %d", n, len(h.keys))
	}
	rows, seen := 0, map[kv.Key]bool{}
	for i := range h.s.shards {
		sh, live := &h.s.shards[i], 0
		chains, hists := map[uint64]bool{}, map[uint64]bool{}
		l := &sh.rows
		l.each(func(e []byte) {
			live++
			k := rowKey(e)
			if m := h.keys[k]; m == nil || m.row != isRow(e) || m.history != isHistory(e) || seen[k] {
				h.t.Fatalf("the entry of %q is live (a chain: %v, a history: %v, again: %v), model: %+v", k, isChain(e), isHistory(e), seen[k], m)
			}
			seen[k] = true
			if _, found := l.find(k, mix(kv.Hash(k))); &found[0] != &e[0] {
				h.t.Fatalf("the live entry of %q is not the one its index slot names", k)
			}
			switch num := entryWord(e); {
			case isRow(e):
				rows++
			case isChain(e) && (chains[num] || sh.chains.items[num] == nil):
				h.t.Fatalf("the entry of %q names chain %d, which is free or named twice", k, num)
			case isHistory(e) && (hists[num] || sh.histories.items[num].elen == 0):
				h.t.Fatalf("the entry of %q names history %d, which is free or named twice", k, num)
			case isChain(e):
				chains[num] = true
			default:
				hists[num] = true
			}
		})
		if live != l.live || l.used < l.live || l.used*4 > len(l.index)*3 {
			h.t.Fatalf("shard %d: %d live entries, index counts %d live, %d used of %d", i, live, l.live, l.used, len(l.index))
		}
		if len(chains) != sh.chains.len() || len(hists) != sh.histories.len() {
			h.t.Fatalf("shard %d: %d chain and %d history entries, %d chains and %d histories numbered", i, len(chains), len(hists), sh.chains.len(), sh.histories.len())
		}
	}
	want, wantHists, frozen := 0, 0, 0
	for _, m := range h.keys {
		switch {
		case m.row:
			want++
		case m.history:
			wantHists++
		}
		frozen += m.frozen
	}
	if st := h.s.Stats(); rows != want || st.Rows != want || st.Histories != wantHists || st.Chains != len(h.keys)-want-wantHists ||
		st.FrozenVersions != int64(frozen) || (frozen == 0) != (st.FrozenBytes == 0) {
		h.t.Fatalf("%d rows, Stats %+v, model %d rows and %d histories of %d keys, %d versions frozen", rows, st, want, wantHists, len(h.keys), frozen)
	}
}

// checkKey asks everything that can be asked about k without moving it
// between tiers, and requires the model's answer: of a row through Read,
// ExportKey and the probes that miss it, of a chain through every accessor.
func (h *modelHarness) checkKey(k kv.Key, m *chainModel) {
	h.t.Helper()
	sealed, all := m.sorted(true), m.sorted(false)
	chain, held, row := h.tier(k)
	recs, wm, ok := h.s.ExportKey(k)
	if _, known := h.keys[k]; !known {
		c, _, isRow := h.s.Read(k, tstamp.Max)
		if chain != nil || held.len() != 0 || row != nil || ok || c != nil || isRow || h.s.View(k) != nil {
			h.t.Fatalf("%q was never written (or dropped) and the store knows it", k)
		}
		return
	}
	if (row != nil) != m.row || (held.len() != 0) != m.history || (chain != nil) == (m.row || m.history) {
		h.t.Fatalf("%q: chain %p, history of %d, row %v; model row %v, history %v", k, chain, held.len(), row != nil, m.row, m.history)
	}
	// The export is the same whichever tier holds the key.
	if !ok || wm != m.watermark || len(recs) != len(all) {
		h.t.Fatalf("ExportKey(%q) = %d records, watermark %v, ok %v; model %v, watermark %v", k, len(recs), wm, ok, all, m.watermark)
	}
	for i, er := range recs {
		won := m.recs[all[i]].kept()
		if er.Version != all[i] || er.Functor == nil || (er.Resolution == nil) != (won == nil) ||
			(won != nil && !sameOutcome(er.Resolution, won)) {
			h.t.Fatalf("ExportKey(%q)[%d] = %v %+v, model %v %+v", k, i, er.Version, er.Resolution, all[i], won)
		}
	}
	c, r, isRow := h.s.Read(k, tstamp.Max)
	if m.row {
		v, won := all[0], m.recs[all[0]].won
		if c != nil || !isRow || r.Version != v || r.Kind != won.Kind || !bytes.Equal(r.Value, won.Value) {
			h.t.Fatalf("Read(%q) = %p %+v %v, model row %v %+v", k, c, r, isRow, v, won)
		}
		if recs[0].Functor != finalPlaceholder(won.Kind) {
			h.t.Fatalf("ExportKey(%q): a row's functor is %v, not the shared placeholder", k, recs[0].Functor.Type)
		}
		// The probes a row answers by missing, and stays a row.
		if _, _, below := h.s.Read(k, v.Prev()); below {
			h.t.Fatalf("Read(%q, %v) found the row at %v", k, v.Prev(), v)
		}
		if _, hit := h.s.At(k, v+1); hit {
			h.t.Fatalf("At(%q, %v) found a record; the row is at %v", k, v+1, v)
		}
		if _, hit := h.s.Latest(k, v.Prev()); hit {
			h.t.Fatalf("Latest(%q, %v) found a record; the row is at %v", k, v.Prev(), v)
		}
		h.s.Seal(k, tstamp.Max)
		if _, _, still := h.tier(k); still == nil {
			h.t.Fatalf("a probe that misses thawed %q", k)
		}
		return
	}
	if m.history {
		h.checkHistory(k, m, sealed)
		return
	}
	if c != chain || isRow {
		h.t.Fatalf("Read(%q) = %p, row %v; the key's chain is %p", k, c, isRow, chain)
	}
	view := h.s.View(k)
	if got := versionsOf(view); !slices.Equal(got, sealed) {
		h.t.Fatalf("view = %v, model %v", got, sealed)
	}
	// Both tiers through the one accessor: the frozen prefix, then the
	// records, every outcome the model's.
	hist := chain.History()
	if hist.Len() != len(sealed) || hist.Frozen() != m.frozen || len(chain.View()) != len(sealed)-m.frozen {
		h.t.Fatalf("History of %q: %d versions, %d frozen, %d records; model %d sealed, %d frozen", k, hist.Len(), hist.Frozen(), len(chain.View()), len(sealed), m.frozen)
	}
	for i, v := range sealed {
		kind, value := hist.Outcome(i)
		if hist.Version(i) != v || kind != m.recs[v].kind() || (kind != 0 && !bytes.Equal(value, m.recs[v].won.Value)) ||
			(hist.Record(i) == nil) != (i < m.frozen) || hist.Search(v) != i+1 || hist.Search(v.Prev()) != i {
			h.t.Fatalf("History(%q)[%d] = %v %v %q, model %v %v", k, i, hist.Version(i), kind, value, v, m.recs[v].kind())
		}
	}
	for _, v := range all {
		rec, ok := h.s.At(k, v)
		frozen := m.isFrozen(v)
		if p, seen := m.ptrs[v]; !ok || rec.Version != v || (seen && rec != p) || (frozen && seen) {
			h.t.Fatalf("At(%v) = %p ok=%v, the store returned %p before", v, rec, ok, p)
		}
		if !frozen {
			m.ptrs[v] = rec
		}
		h.checkOutcome(rec, m.recs[v].kept(), m.recs[v].decoded)
		// Latest just below, at, and just above each version.
		for _, max := range []tstamp.Timestamp{v.Prev(), v, v + 1} {
			i := sort.Search(len(sealed), func(i int) bool { return sealed[i] > max })
			rec, ok := h.s.Latest(k, max)
			if ok != (i > 0) || (ok && rec.Version != sealed[i-1]) {
				h.t.Fatalf("Latest(%v) = %v ok=%v, model sealed %v", max, rec, ok, sealed)
			}
		}
	}
	if _, ok := h.s.At(k, tstamp.Max); ok {
		h.t.Fatal("At of a version never written found a record")
	}
	if got := chain.Watermark(); got != m.watermark {
		h.t.Fatalf("watermark %v, model %v", got, m.watermark)
	}
}

// checkHistory asks everything that can be asked of a history without
// thawing it: Read at and between its versions, the version a read stops at;
// At, Latest and View, fresh records with the model's outcomes; Seal, which
// has nothing to do.
func (h *modelHarness) checkHistory(k kv.Key, m *chainModel, sealed []tstamp.Timestamp) {
	h.t.Helper()
	if len(sealed) != len(m.recs) || m.watermark != sealed[len(sealed)-1] || m.frozen != len(sealed) {
		h.t.Fatalf("model of the history %q: %d sealed of %d, watermark %v, %d frozen", k, len(sealed), len(m.recs), m.watermark, m.frozen)
	}
	// seen is the model's answer to Read(k, max): ok and the version a read
	// at max stops at.
	seen := func(max tstamp.Timestamp) (tstamp.Timestamp, bool) {
		n := sort.Search(len(sealed), func(i int) bool { return sealed[i] > max })
		for i := n - 1; i >= 0; i-- {
			if k := m.recs[sealed[i]].won.Kind; k == functor.Resolved || k == functor.ResolvedDeleted {
				return sealed[i], true
			}
		}
		if n == 0 {
			return 0, false
		}
		return sealed[n-1], true
	}
	view := h.s.View(k)
	if got := versionsOf(view); !slices.Equal(got, sealed) {
		h.t.Fatalf("View of the history %q = %v, model %v", k, got, sealed)
	}
	for i, v := range sealed {
		won := m.recs[v].kept()
		h.checkOutcome(view[i], won, true)
		rec, ok := h.s.At(k, v)
		if !ok || rec.Version != v || rec == view[i] {
			h.t.Fatalf("At(%q, %v) = %p ok=%v: not a fresh record of the version", k, v, rec, ok)
		}
		h.checkOutcome(rec, won, true)
		for _, max := range []tstamp.Timestamp{v.Prev(), v, v + 1} {
			c, r, isRow := h.s.Read(k, max)
			want, wantOK := seen(max)
			if wv := m.recs[want]; c != nil || isRow != wantOK || wantOK && (r.Version != want || r.Kind != wv.won.Kind || !bytes.Equal(r.Value, wv.won.Value)) {
				h.t.Fatalf("Read(%q, %v) = %p %+v %v, model %v %v", k, max, c, r, isRow, want, wantOK)
			}
			j := sort.Search(len(sealed), func(i int) bool { return sealed[i] > max })
			if rec, ok := h.s.Latest(k, max); ok != (j > 0) || ok && rec.Version != sealed[j-1] {
				h.t.Fatalf("Latest(%q, %v) = %v ok=%v, model sealed %v", k, max, rec, ok, sealed)
			}
		}
	}
	if _, ok := h.s.At(k, tstamp.Max); ok {
		h.t.Fatal("At of a version never written found a record")
	}
	h.s.Seal(k, tstamp.Max)
	if c, _, _ := h.tier(k); c != nil {
		h.t.Fatalf("a reader thawed the history %q", k)
	}
}

// checkOutcome compares both accessors of rec with the outcome the model
// says won it: Outcome is the winner's kind and value, with the winner's own
// Resolution behind ext exactly when it carries a reason or dependent
// writes; Resolution() is that object, or an equal one made on the spot. A
// record made from the frozen run holds an equal Resolution decoded from it
// instead of the winner's own.
func (h *modelHarness) checkOutcome(rec *Record, won *functor.Resolution, decoded bool) {
	h.t.Helper()
	kind, value, ext := rec.Outcome()
	res := rec.Resolution()
	if won == nil {
		if kind != 0 || value != nil || ext != nil || res != nil || rec.Final() {
			h.t.Fatalf("record %v resolved %v (%q, ext %v, Resolution %v), model unresolved", rec.Version, kind, value, ext, res)
		}
		return
	}
	wantExt := keptBehindExt(won)
	if decoded {
		if kind != won.Kind || !bytes.Equal(value, won.Value) || (ext == nil) != (wantExt == nil) || !rec.Final() ||
			res == nil || !sameOutcome(res, won) || (ext != nil && res != ext) {
			h.t.Fatalf("frozen record %v: Outcome = %v %q ext %+v, Resolution() = %+v, model %+v", rec.Version, kind, value, ext, res, won)
		}
		return
	}
	if kind != won.Kind || !bytes.Equal(value, won.Value) || ext != wantExt || !rec.Final() {
		h.t.Fatalf("record %v: Outcome = %v %q ext %p, model %v %q ext %p", rec.Version, kind, value, ext, won.Kind, won.Value, wantExt)
	}
	if res == nil || (wantExt != nil && res != wantExt) || !reflect.DeepEqual(res, won) {
		h.t.Fatalf("record %v: Resolution() = %+v, model %+v", rec.Version, res, won)
	}
}

// sameOutcome compares two resolutions byte for byte: kind, value, reason
// and every dependent write.
func sameOutcome(got, want *functor.Resolution) bool {
	if got.Kind != want.Kind || !bytes.Equal(got.Value, want.Value) || got.Reason != want.Reason ||
		len(got.DependentWrites) != len(want.DependentWrites) {
		return false
	}
	for i, w := range want.DependentWrites {
		g := got.DependentWrites[i]
		if g.Key != w.Key || !bytes.Equal(g.Value, w.Value) || g.Delete != w.Delete {
			return false
		}
	}
	return true
}

var (
	valueRes = functor.ValueResolution(kv.Value("v"))
	abortRes = functor.AbortResolution("second round")
	// A determinate functor's outcome: a value that carries deferred writes.
	writesRes = &functor.Resolution{Kind: functor.Resolved, Value: kv.Value("det"), DependentWrites: []functor.DependentWrite{{Key: "row", Value: kv.Value("r")}}}
)

// TestLayoutAgainstModel walks the chain through each transition of its
// layout and compares it with the model after every step.
func TestLayoutAgainstModel(t *testing.T) {
	t.Run("inline record to array growth under held views", func(t *testing.T) {
		h := newModelHarness(t)
		h.hold() // of a key never written
		h.put(ts(1, 1, 0), functor.Add(1))
		h.hold() // staged only: still empty
		h.seal(tstamp.End(1))
		h.hold() // the embedded one-slot array
		for e := tstamp.Epoch(2); e <= 12; e++ {
			for seq := uint32(1); seq <= uint32(e); seq++ {
				h.put(ts(e, seq, 0), functor.Add(1))
			}
			h.hold() // full arrays are replaced while this one is held
			h.seal(tstamp.End(e))
		}
		if rec, _ := h.s.At("k", ts(1, 1, 0)); rec != &h.s.Chain("k").first {
			t.Error("the first record is not the one embedded in the chain")
		}
	})

	t.Run("straggler sealed below a sealed epoch", func(t *testing.T) {
		h := newModelHarness(t)
		h.put(ts(1, 5, 0), functor.Add(1))
		h.put(ts(2, 5, 0), functor.Add(1)) // next epoch's straggler, staged early
		h.seal(tstamp.End(1))              // leaves epoch 2 staged
		h.put(ts(3, 1, 0), functor.Add(1))
		h.seal(tstamp.End(3))
		h.hold()
		// Arrive after epoch 3 is readable: below, between and inside it.
		h.put(ts(3, 9, 1), functor.Add(1))
		h.put(ts(1, 1, 1), functor.Add(1))
		h.put(ts(2, 7, 1), functor.Add(1))
		h.put(ts(4, 1, 1), functor.Add(1)) // and one that must stay staged
		h.seal(tstamp.End(3))
		h.hold()
		h.seal(tstamp.End(4))
	})

	t.Run("second-round abort of a staged VALUE beats the lazy resolution", func(t *testing.T) {
		h := newModelHarness(t)
		v := ts(1, 1, 0)
		fn := functor.Value(kv.Value("never visible"))
		h.put(v, fn)
		h.resolve(v, abortRes) // before the epoch commits, on the embedded record
		h.seal(tstamp.End(1))
		kind, value := FinalOutcome(fn)
		lazy := &functor.Resolution{Kind: kind, Value: value}
		h.resolve(v, lazy) // a reader's lazy resolution must lose
		if res := h.m.ptrs[v].Resolution(); res.Kind != functor.ResolvedAborted {
			t.Errorf("record resolved %v, want ABORTED", res.Kind)
		}
		// The same on a record that lives in a grown array.
		v2 := ts(2, 1, 0)
		h.put(v2, fn)
		h.put(ts(2, 2, 0), functor.Add(1))
		h.resolve(v2, abortRes)
		h.seal(tstamp.End(2))
		h.resolve(v2, lazy)
	})

	t.Run("compaction of one record and across the inline boundary", func(t *testing.T) {
		h := newModelHarness(t)
		h.put(ts(1, 1, 0), functor.Add(1))
		h.seal(tstamp.End(1))
		h.resolve(ts(1, 1, 0), valueRes)
		h.advance(tstamp.End(1))
		h.compact(tstamp.End(1)) // one record: it is the newest visible, nothing goes
		h.hold()
		h.put(ts(2, 1, 0), functor.Add(1)) // grows out of the embedded array
		h.put(ts(2, 2, 0), functor.Add(1))
		h.put(ts(3, 1, 0), functor.Add(1)) // stays staged across the compaction
		h.seal(tstamp.End(2))
		h.resolve(ts(2, 1, 0), valueRes)
		h.resolve(ts(2, 2, 0), abortRes)
		h.advance(tstamp.End(2))
		h.hold()
		h.compact(tstamp.End(2)) // drops the embedded record, keeps 2.1 (visible) and 2.2
		if _, ok := h.m.recs[ts(1, 1, 0)]; ok {
			t.Fatal("model kept the embedded record")
		}
		h.seal(tstamp.End(3))
		h.resolve(ts(3, 1, 0), valueRes)
		h.advance(tstamp.End(3))
		h.compact(tstamp.End(3))
		h.put(ts(4, 1, 0), functor.Add(1)) // the chain keeps working after it
		h.seal(tstamp.End(4))
	})

	t.Run("pre-resolved installs", func(t *testing.T) {
		h := newModelHarness(t)
		h.putResolved(ts(1, 3, 0), functor.Resolved, kv.Value("v")) // fresh key: embedded, sealed, resolved
		if !h.m.ptrs[ts(1, 3, 0)].Final() || len(h.s.View("k")) != 1 {
			t.Fatal("a pre-resolved install is not readable at once")
		}
		h.put(ts(1, 2, 0), functor.DepMarker("det")) // a marker staged in the write-only phase
		h.put(ts(1, 9, 0), functor.Add(1))
		h.putResolved(ts(1, 2, 0), functor.Resolved, kv.Value("w")) // resolves the marker where it is, still staged
		h.resolve(ts(1, 2, 0), abortRes)                            // and only once
		h.hold()
		h.putResolved(ts(1, 5, 0), functor.Resolved, kv.Value("x")) // publishes the marker 1.2 with it, merged below the sealed 1.3
		h.putResolved(ts(1, 5, 0), functor.Resolved, kv.Value("y")) // duplicate delivery: the first value stays
		h.putResolved(ts(1, 6, 0), functor.ResolvedDeleted, nil)
		h.resolve(ts(1, 9, 0), writesRes)                              // an outcome that keeps its Resolution
		h.putResolved(ts(1, 9, 0), functor.Resolved, kv.Value("late")) // and a deferred write that arrives after it
		h.seal(tstamp.End(1))
	})
}

// TestLayoutRandomOpsAgainstModel drives random puts, pre-resolved
// installs, seals at random bounds (so stragglers both stay staged and
// merge below sealed records, frozen ones included), resolutions, computes
// in version order with every shape of outcome, watermark advances,
// freezes and compactions through the harness while readers walk the chain
// concurrently; run under -race it also shows that no published slot or run
// byte is ever rewritten.
func TestLayoutRandomOpsAgainstModel(t *testing.T) {
	froze := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newModelHarness(t)
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					view := h.s.View("k")
					for i, rec := range view {
						if i > 0 && view[i-1].Version >= rec.Version {
							t.Errorf("seed %d: reader saw an unsorted view %v", seed, versionsOf(view))
							return
						}
						rec.Resolution()
					}
					h.s.Latest("k", tstamp.Max)
					if c, _, _ := h.s.Read("k", 0); c != nil {
						hist := c.History()
						for i := 0; i < hist.Len(); i++ {
							kind, _ := hist.Outcome(i)
							if (i > 0 && hist.Version(i-1) >= hist.Version(i)) || (i < hist.Frozen() && kind == 0) {
								t.Errorf("seed %d: reader saw version %v (%v) at %d of a history with %d frozen", seed, hist.Version(i), kind, i, hist.Frozen())
								return
							}
						}
					}
				}
			}()
		}
		epochs := 4
		outcomes := []*functor.Resolution{valueRes, valueRes, abortRes, writesRes, functor.DeleteResolution(), functor.SkipResolution()}
		for i := 0; i < 400; i++ {
			v := ts(tstamp.Epoch(rng.Intn(epochs)+1), uint32(rng.Intn(40)+1), uint16(rng.Intn(3)))
			switch op := rng.Intn(22); {
			case op >= 20:
				// Compute the sealed history in order, as the processor
				// does, then freeze what is below the watermark.
				h.compute(outcomes, rng.Int)
				froze += h.freeze()
				continue
			case op < 9:
				h.put(v, functor.Add(1))
			case op < 11:
				h.putResolved(v, functor.Resolved, kv.EncodeInt64(int64(i)))
			case op < 14:
				h.seal(tstamp.End(tstamp.Epoch(rng.Intn(epochs) + 1)))
			case op < 15:
				h.hold()
			case op < 18:
				if all := h.m.sorted(false); len(all) > 0 {
					res := []*functor.Resolution{valueRes, abortRes, writesRes, functor.DeleteResolution(), functor.SkipResolution(), functor.ValueResolution(kv.EncodeInt64(int64(i)))}
					h.resolve(all[rng.Intn(len(all))], res[rng.Intn(len(res))])
				}
			default:
				// Raise the watermark over the resolved sealed prefix, as
				// the engine does, then compact somewhere inside it.
				var wm tstamp.Timestamp
				for _, sv := range h.m.sorted(true) {
					if h.m.recs[sv].won == nil {
						break
					}
					wm = sv
				}
				h.advance(wm)
				h.compact(ts(tstamp.Epoch(rng.Intn(epochs)+1), uint32(rng.Intn(40)), 0))
			}
		}
		h.seal(tstamp.Max)
		close(stop)
		readers.Wait()
	}
	t.Logf("%d versions frozen", froze)
	if froze == 0 {
		t.Fatal("the random ops no longer freeze anything")
	}
}
