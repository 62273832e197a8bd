package mvstore

import (
	"errors"
	"slices"
	"sync"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// ErrVersionExists is returned by Put when the key already has a record at
// the given version. Versions are transaction timestamps, which are
// globally unique, so a duplicate indicates a retransmitted install; the
// caller treats it as idempotent success or a protocol error as
// appropriate.
var ErrVersionExists = errors.New("mvstore: version already exists")

const _defaultShards = 64

// Store is one partition's multi-version table: hash shards, each of which
// finds every key it holds through one index over its row log (rows.go). A
// key's entry is a row — its whole history is one final version, held as
// bytes — or names its history — a settled history of more, a frozen run
// held as bytes too — or the key's version chain. Which of the three a key
// is shows in nothing the store answers.
type Store struct {
	shards []shard
}

// shard holds each of its keys once, as a row, a history or a chain. Every
// writer finds and stages under mu — the read lock when the key has a chain,
// the write lock when it has to be given one — which is what lets Fold,
// under the write lock, retire a chain: a write either lands before the fold
// looks, and the fold refuses a chain with a staged record or a version
// above the watermark, or finds the row or history the fold left.
type shard struct {
	mu   sync.RWMutex
	rows rowLog
	// chains and histories are the shard's chains and histories by the
	// number their entries carry.
	chains    table[*Chain]
	histories table[histRef]
	thaws     uint64
	folds     uint64
}

// New returns an empty store with the default shard count.
func New() *Store { return NewWithShards(_defaultShards) }

// NewWithShards returns an empty store with n hash shards. Shards bound
// contention on key creation; chain access itself is lock-free for reads.
func NewWithShards(n int) *Store {
	return &Store{shards: make([]shard, max(n, 1))}
}

// locate hashes k once: its shard, and the mixed hash the shard's index is
// probed with.
func (s *Store) locate(k kv.Key) (*shard, uint64) {
	h := kv.Hash(k)
	return &s.shards[h%uint64(len(s.shards))], mix(h)
}

// chainOf returns k's chain, thawing its row or history if it is one, or
// nil if the key has never been written. Callers hold sh.mu for writing.
func (sh *shard) chainOf(k kv.Key, m uint64) *Chain {
	switch pos, e := sh.rows.find(k, m); {
	case pos < 0:
		return nil
	case isChain(e):
		return sh.chain(e)
	default:
		return sh.thaw(e)
	}
}

// entry is what one probe of a key finds, read under the shard's lock: its
// chain, its history or its row, at most one of them.
type entry struct {
	c     *Chain
	hist  run
	row   Row
	isRow bool
}

// probe finds k's entry under the shard's read lock.
func (s *Store) probe(k kv.Key) (en entry) {
	sh, m := s.locate(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	switch pos, e := sh.rows.find(k, m); {
	case pos < 0:
	case isChain(e):
		en.c = sh.chain(e)
	case isHistory(e):
		en.hist = sh.history(e)
	default:
		en.row, en.isRow = rowOf(e), true
	}
	return en
}

// Chain returns the key's chain, thawing its row or history, or nil if the
// key has never been written. A caller that touches one key more than once
// holds on to the chain instead of addressing the store by key again; it
// reads through it, and writes through the store.
func (s *Store) Chain(k kv.Key) *Chain {
	sh, m := s.locate(k)
	sh.mu.RLock()
	pos, e := sh.rows.find(k, m)
	var c *Chain
	if pos >= 0 && isChain(e) {
		c = sh.chain(e)
	}
	sh.mu.RUnlock()
	if pos < 0 || c != nil {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.chainOf(k, m)
}

// Stage installs a functor as a new in-epoch version of key k (paper
// Figure 4) and returns the chain it is staged in, creating the chain or
// thawing the key's row or history as needed; the record stays invisible to
// reads until Seal publishes it. A duplicate version returns the existing
// record and ErrVersionExists.
//
// The chain is the key's for as long as it holds a record that is staged or
// above the watermark: until then Fold leaves it alone. A caller writes the
// key's next version through the store again.
func (s *Store) Stage(k kv.Key, version tstamp.Timestamp, fn *functor.Functor) (*Chain, *Record, error) {
	sh, m := s.locate(k)
	sh.mu.RLock()
	if pos, e := sh.rows.find(k, m); pos >= 0 && isChain(e) {
		c := sh.chain(e)
		rec, err := c.put(version, fn)
		sh.mu.RUnlock()
		return c, rec, err
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.chainOf(k, m)
	if c == nil {
		c = sh.create(k, m)
	}
	rec, err := c.put(version, fn)
	return c, rec, err
}

// Put is Stage for a caller that needs only the record.
func (s *Store) Put(k kv.Key, version tstamp.Timestamp, fn *functor.Functor) (*Record, error) {
	_, rec, err := s.Stage(k, version, fn)
	return rec, err
}

// Row is a final version of a key that has no chain. Value aliases the
// store and must not be written.
type Row struct {
	Version tstamp.Timestamp
	Kind    functor.ResolutionKind
	Value   kv.Value
}

// Read is the lookup that creates nothing: k's chain if it has one, else —
// ok — the version a read at max stops at, when there is one at or below
// max. Of a row that is its one version; of a history the newest at or
// below max that is neither aborted nor skipped, or, when every one is, the
// newest of those. A caller that only needs a final value answers from the
// row; Chain is for one that needs the records.
func (s *Store) Read(k kv.Key, max tstamp.Timestamp) (c *Chain, row Row, ok bool) {
	en := s.probe(k)
	switch {
	case en.hist.len() > 0:
		if i := en.hist.seen(max); i >= 0 {
			return nil, en.hist.row(i), true
		}
	case en.isRow && en.row.Version <= max:
		return nil, en.row, true
	}
	return en.c, Row{}, false
}

// PutFinal installs a version of k that is born final — a deferred write, a
// bulk-loaded or checkpointed value — with its plain outcome, and reports
// whether the version is new. settled says that nothing older can arrive for
// the key any more (a load, a checkpoint), so its watermark rises to version.
//
// A key never written before becomes a row and costs no heap object: key and
// value are copied into the shard's row log, and the chain returned is nil.
// A key that is a row or a history is thawed first, unless it holds the
// version already (a duplicate delivery); a key with a chain gets what the
// chain's putResolved does. A row over 16 KB takes the chain path.
//
// The key is probed once, under the shard's write lock, unless it has a
// chain: a chain can be busy, so it is written under the read lock, which
// keeps a fold out as surely, and probed again there.
func (s *Store) PutFinal(k kv.Key, version tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value, settled bool) (c *Chain, fresh bool) {
	sh, m := s.locate(k)
	sh.mu.Lock()
	pos, e := sh.rows.find(k, m)
	if pos >= 0 && isChain(e) {
		sh.mu.Unlock()
		sh.mu.RLock()
		if pos, e = sh.rows.find(k, m); pos < 0 || !isChain(e) {
			// A fold or a drop came in between.
			sh.mu.RUnlock()
			return s.PutFinal(k, version, kind, value, settled)
		}
		defer sh.mu.RUnlock()
		return putFinalIn(sh.chain(e), version, kind, value, settled)
	}
	defer sh.mu.Unlock()
	switch {
	case pos >= 0 && isRow(e) && rowVersion(e) == version:
		return nil, false // a duplicate delivery
	case pos >= 0 && isHistory(e) && sh.history(e).holds(version):
		return nil, false
	case pos >= 0:
		c = sh.thaw(e)
	case len(k)+len(value) <= _maxRow && sh.rows.put(k, m, uint64(version), rowFlags(kind, settled), value):
		return nil, true
	default:
		c = sh.create(k, m)
	}
	return putFinalIn(c, version, kind, value, settled)
}

// putFinalIn is the chain half of PutFinal. Callers hold the shard's lock.
func putFinalIn(c *Chain, version tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value, settled bool) (*Chain, bool) {
	_, fresh := c.putResolved(version, kind, value)
	if fresh && settled {
		c.AdvanceWatermark(version)
	}
	return c, fresh
}

// Fold lets c go when it is k's chain and its history has settled: every
// version, the newest included, final and at or below the watermark, with
// nothing staged and no compaction owed. One version with a plain outcome (a
// value or a tombstone) that fits a row becomes a settled row; any other
// settled history becomes a history, its versions appended to the chain's
// frozen run — in place when the run has room, so a long history is not
// copied again. Retention compacts a history where it lies (CompactKey).
//
// It reports whether it folded. A reader that still holds c, or a record of
// it, keeps a consistent history — the chain is not changed, only no longer
// the store's — and the next write of k thaws the row or history into a new
// chain.
func (s *Store) Fold(k kv.Key, c *Chain) bool {
	if _, n := c.settled(); n == 0 {
		return false // the lock-free check: most chains are not settled
	}
	sh, m := s.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pos, e := sh.rows.find(k, m)
	if pos < 0 || !isChain(e) || sh.chain(e) != c {
		return false
	}
	return sh.fold(pos, e, k, m, c)
}

// The key-addressed forms below are one probe plus the Chain method of the
// same name, for callers that touch a key once. They thaw a row only when
// the answer is a record of it, and never a history: a version of a history
// is handed out as a fresh final record, as a frozen version of a chain is.

// Seal makes k's staged records with versions strictly below bound
// readable.
func (s *Store) Seal(k kv.Key, bound tstamp.Timestamp) {
	if c, _, _ := s.Read(k, 0); c != nil {
		c.Seal(bound)
	}
}

// SealAll seals every key up to bound; recovery uses it to publish a
// rebuilt store in one sweep.
func (s *Store) SealAll(bound tstamp.Timestamp) {
	s.RangeHistories(func(k kv.Key) bool {
		s.Seal(k, bound) // a history has nothing staged
		return true
	})
}

// Latest returns the newest record of k with Version <= max.
func (s *Store) Latest(k kv.Key, max tstamp.Timestamp) (*Record, bool) {
	en := s.probe(k)
	switch {
	case en.hist.len() > 0:
		if i := en.hist.search(max); i > 0 {
			return en.hist.record(i - 1), true
		}
		return nil, false
	case en.isRow && en.row.Version <= max:
		en.c = s.Chain(k)
	}
	if en.c == nil {
		return nil, false
	}
	r := en.c.Latest(max)
	return r, r != nil
}

// At returns the record of k at exactly the given version, whether sealed
// or still staged in-epoch (the second-round abort addresses uncommitted
// records by version).
func (s *Store) At(k kv.Key, version tstamp.Timestamp) (*Record, bool) {
	en := s.probe(k)
	switch {
	case en.hist.len() > 0:
		if i := en.hist.search(version) - 1; i >= 0 && en.hist.version(i) == version {
			return en.hist.record(i), true
		}
		return nil, false
	case en.isRow && en.row.Version == version:
		en.c = s.Chain(k)
	}
	if en.c == nil {
		return nil, false
	}
	r := en.c.At(version)
	return r, r != nil
}

// View returns k's whole history as an ascending snapshot of records, or
// nil: the chain's records behind a fresh final one for each frozen version,
// or a fresh one for every version of a history.
func (s *Store) View(k kv.Key) []*Record {
	en := s.probe(k)
	switch {
	case en.hist.len() > 0:
		return en.hist.records()
	case en.isRow:
		en.c = s.Chain(k)
	}
	if en.c == nil {
		return nil
	}
	return en.c.History().all()
}

// AdvanceWatermark raises k's value watermark to at least v, thawing a row
// or a history. A key never written has no watermark to raise.
func (s *Store) AdvanceWatermark(k kv.Key, v tstamp.Timestamp) {
	if c := s.Chain(k); c != nil {
		c.AdvanceWatermark(v)
	}
}

// Range calls fn for every key in the store, with its chain, until fn
// returns false; a row or a history is thawed as it is reached, so what fn
// is handed is the key's one live chain. The iteration order is unspecified.
// Chains observed through fn are live: new versions may be inserted
// concurrently, but each View() call returns a consistent snapshot.
func (s *Store) Range(fn func(k kv.Key, c *Chain) bool) {
	s.RangeKeys(func(k kv.Key) bool {
		c := s.Chain(k)
		return c == nil || fn(k, c) // nil: dropped meanwhile
	})
}

// RangeKeys calls fn for every key in the store until fn returns false,
// in unspecified order, and thaws nothing.
func (s *Store) RangeKeys(fn func(k kv.Key) bool) { s.rangeKeys(true, fn) }

// RangeHistories is RangeKeys over the keys that are no row, chains and
// histories: those a compaction may find something to drop in.
func (s *Store) RangeHistories(fn func(k kv.Key) bool) { s.rangeKeys(false, fn) }

// rangeKeys reads each shard's keys, rows only when rows is set, under its
// read lock, and calls fn for them after: fn may address the store.
func (s *Store) rangeKeys(rows bool, fn func(k kv.Key) bool) {
	var snap []kv.Key
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		snap = slices.Grow(snap[:0], sh.rows.live)
		sh.rows.each(func(e []byte) {
			if rows || !isRow(e) {
				snap = append(snap, rowKey(e))
			}
		})
		sh.mu.RUnlock()
		for _, k := range snap {
			if !fn(k) {
				return
			}
		}
	}
}

// Key returns the store's own copy of k, the key bytes of its entry, which
// are never rewritten; k itself when it has none. A caller that keeps a key
// longer than the buffer it came in (a transport frame) keeps this copy.
func (s *Store) Key(k kv.Key) kv.Key {
	sh, m := s.locate(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if pos, e := sh.rows.find(k, m); pos >= 0 {
		return rowKey(e)
	}
	return k
}

// Len returns the number of keys in the store: each has one entry.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.rows.live
		sh.mu.RUnlock()
	}
	return n
}

// Stats is how much of the store is rows and histories, and how much of its
// history is frozen: the numbers that explain a regression in what the
// store costs the collector.
type Stats struct {
	Chains    int // keys that have a chain
	Rows      int // keys that are a row: one final version
	Histories int // keys that are a history: a frozen run and no chain
	// RowBytes is what the row logs hold, the entries since dropped or left
	// behind by a fold included: those bytes are not reclaimed.
	RowBytes int64
	Thaws    uint64 // rows and histories that became chains, ever
	Folds    uint64 // chains that became rows or histories, ever
	// FrozenVersions are the versions held in frozen runs, chains' and
	// histories', as bytes rather than records; FrozenBytes is what those
	// entries take.
	FrozenVersions int64
	FrozenBytes    int64
}

// Stats walks the shards and their chains once.
func (s *Store) Stats() Stats {
	var st Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		chains, hists := sh.chains.len(), sh.histories.len()
		st.Chains += chains
		st.Histories += hists
		st.Rows += sh.rows.live - chains - hists
		st.RowBytes += int64(sh.rows.bytes())
		st.Thaws += sh.thaws
		st.Folds += sh.folds
		frozen := func(r run) {
			st.FrozenVersions += int64(r.len())
			st.FrozenBytes += int64(r.bytes())
		}
		for _, c := range sh.chains.items {
			if c == nil {
				continue
			}
			if b := c.cur.Load(); b != nil {
				frozen(b.run())
			}
		}
		for _, h := range sh.histories.items {
			frozen(h.run())
		}
		sh.mu.RUnlock()
	}
	return st
}

// Compact drops final version records strictly below bound for every key,
// always retaining the newest record below bound so historical reads at
// live snapshots still resolve: CompactKey of every key that is no row.
// Returns the total number of records removed.
func (s *Store) Compact(bound tstamp.Timestamp) int {
	total := 0
	s.RangeHistories(func(k kv.Key) bool {
		total += s.CompactKey(k, bound)
		return true
	})
	return total
}

// CompactKey drops k's final versions strictly below bound, keeping the
// newest visible one below it (Chain.Compact), and returns how many it
// dropped. A history is compacted where it lies and keeps its newest
// version; left with one that a row holds, it becomes that row.
func (s *Store) CompactKey(k kv.Key, bound tstamp.Timestamp) int {
	sh, m := s.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch pos, e := sh.rows.find(k, m); {
	case pos < 0 || isRow(e):
		return 0
	case isChain(e):
		return sh.chain(e).Compact(bound)
	default:
		return sh.compact(pos, e, k, m, bound)
	}
}
