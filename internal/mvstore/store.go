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

// Store is one partition's multi-version table: a sharded hash map from
// keys to version chains and, beside it, the row logs of the keys whose only
// version was born final (see rows.go). Which of the two a key lives in shows
// in nothing the store answers.
type Store struct {
	shards []shard
}

// shard holds each of its keys in chains or in rows, never in both.
type shard struct {
	mu     sync.RWMutex
	chains map[kv.Key]*Chain
	rows   rowLog
	thaws  uint64
}

// New returns an empty store with the default shard count.
func New() *Store { return NewWithShards(_defaultShards) }

// NewWithShards returns an empty store with n hash shards. Shards bound
// contention on chain creation; chain access itself is lock-free for reads.
func NewWithShards(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{shards: make([]shard, n)}
	for i := range s.shards {
		s.shards[i].chains = make(map[kv.Key]*Chain)
	}
	return s
}

// locate hashes k once: its shard, and the mixed hash the shard's row index
// is probed with.
func (s *Store) locate(k kv.Key) (*shard, uint64) {
	h := kv.Hash(k)
	return &s.shards[h%uint64(len(s.shards))], mix(h)
}

// chainOf returns k's chain, thawing its row if it is one, or nil if the key
// has never been written. Callers hold sh.mu for writing.
func (sh *shard) chainOf(k kv.Key, m uint64) *Chain {
	if c := sh.chains[k]; c != nil {
		return c
	}
	if pos, row := sh.rows.find(k, m); pos >= 0 {
		return sh.thaw(pos, row)
	}
	return nil
}

// Chain returns the key's chain, or nil if the key has never been written.
// Callers that touch one key more than once hold on to the chain instead
// of addressing the store by key again.
func (s *Store) Chain(k kv.Key) *Chain {
	sh, m := s.locate(k)
	sh.mu.RLock()
	c := sh.chains[k]
	pos := -1
	if c == nil {
		pos, _ = sh.rows.find(k, m)
	}
	sh.mu.RUnlock()
	if pos < 0 {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.chainOf(k, m)
}

// ChainOrCreate returns the key's chain, creating it if needed.
func (s *Store) ChainOrCreate(k kv.Key) *Chain {
	sh, m := s.locate(k)
	sh.mu.RLock()
	c := sh.chains[k]
	sh.mu.RUnlock()
	if c != nil {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c = sh.chainOf(k, m); c == nil {
		c = new(Chain)
		sh.chains[k] = c
	}
	return c
}

// Row is the one version of a key that has no chain: born final and not
// touched since. Value aliases the store and must not be written.
type Row struct {
	Version tstamp.Timestamp
	Kind    functor.ResolutionKind
	Value   kv.Value
}

// Read is the lookup that creates nothing: k's chain if it has one, else —
// ok — the row that is its whole history, provided its version is at or
// below max. A caller that only needs a final value answers from the row;
// Chain is for one that needs the records.
func (s *Store) Read(k kv.Key, max tstamp.Timestamp) (c *Chain, row Row, ok bool) {
	sh, m := s.locate(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if c = sh.chains[k]; c != nil {
		return c, Row{}, false
	}
	if pos, b := sh.rows.find(k, m); pos >= 0 && rowVersion(b) <= max {
		return nil, rowOf(b), true
	}
	return nil, Row{}, false
}

// PutFinal installs a version of k that is born final — a deferred write, a
// bulk-loaded or checkpointed value — with its plain outcome, and reports
// whether the version is new. settled says that nothing older can arrive for
// the key any more (a load, a checkpoint), so its watermark rises to version.
//
// A key never written before becomes a row and costs no heap object: key and
// value are copied into the shard's row log, and the chain returned is nil.
// A key with a chain gets what Chain.PutResolved does; a key that is a row is
// thawed first. A row over 16 KB takes the chain path.
func (s *Store) PutFinal(k kv.Key, version tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value, settled bool) (c *Chain, fresh bool) {
	sh, m := s.locate(k)
	sh.mu.Lock()
	if c = sh.chains[k]; c == nil {
		pos, row := sh.rows.find(k, m)
		switch {
		case pos >= 0 && rowVersion(row) == version:
			sh.mu.Unlock()
			return nil, false // a duplicate delivery
		case pos >= 0:
			c = sh.thaw(pos, row)
		case len(k)+len(value) <= _maxRow && sh.rows.put(k, m, version, kind, settled, value):
			sh.mu.Unlock()
			return nil, true
		default:
			c = new(Chain)
			sh.chains[k] = c
		}
	}
	sh.mu.Unlock()
	if _, fresh = c.PutResolved(version, kind, value); fresh && settled {
		c.AdvanceWatermark(version)
	}
	return c, fresh
}

// The key-addressed forms below are one probe plus the Chain method of the
// same name, for callers that touch a key once. They thaw a row only when
// the answer is a record of it.

// Put installs a functor as a new in-epoch version of key k.
func (s *Store) Put(k kv.Key, version tstamp.Timestamp, fn *functor.Functor) (*Record, error) {
	return s.ChainOrCreate(k).Put(version, fn)
}

// Seal makes k's staged records with versions strictly below bound
// readable.
func (s *Store) Seal(k kv.Key, bound tstamp.Timestamp) {
	if c, _, _ := s.Read(k, 0); c != nil {
		c.Seal(bound)
	}
}

// SealAll seals every key up to bound; recovery and replica promotion use
// it to publish a rebuilt store in one sweep.
func (s *Store) SealAll(bound tstamp.Timestamp) {
	s.RangeChains(func(_ kv.Key, c *Chain) bool {
		c.Seal(bound)
		return true
	})
}

// Latest returns the newest record of k with Version <= max.
func (s *Store) Latest(k kv.Key, max tstamp.Timestamp) (*Record, bool) {
	c, _, isRow := s.Read(k, max)
	if isRow {
		c = s.Chain(k)
	}
	if c == nil {
		return nil, false
	}
	r := c.Latest(max)
	return r, r != nil
}

// At returns the record of k at exactly the given version, whether sealed
// or still staged in-epoch (the second-round abort addresses uncommitted
// records by version).
func (s *Store) At(k kv.Key, version tstamp.Timestamp) (*Record, bool) {
	c, row, ok := s.Read(k, version)
	if ok && row.Version == version {
		c = s.Chain(k)
	}
	if c == nil {
		return nil, false
	}
	r := c.At(version)
	return r, r != nil
}

// View returns the immutable ascending version snapshot of k, or nil.
func (s *Store) View(k kv.Key) []*Record {
	c := s.Chain(k)
	if c == nil {
		return nil
	}
	return c.View()
}

// AdvanceWatermark raises k's value watermark to at least v. A key never
// written has no watermark to raise.
func (s *Store) AdvanceWatermark(k kv.Key, v tstamp.Timestamp) {
	if c := s.Chain(k); c != nil {
		c.AdvanceWatermark(v)
	}
}

// Range calls fn for every key in the store, with its chain, until fn
// returns false; rows are thawed as their shard is reached, so what fn is
// handed is the key's one live chain. The iteration order is unspecified.
// Chains observed through fn are live: new versions may be inserted
// concurrently, but each View() call returns a consistent snapshot.
func (s *Store) Range(fn func(k kv.Key, c *Chain) bool) { s.rangeChains(true, fn) }

// RangeChains is Range over the keys that have a chain, and thaws nothing:
// for callers after what only a chain has — staged records to seal, history
// to compact or retire.
func (s *Store) RangeChains(fn func(k kv.Key, c *Chain) bool) { s.rangeChains(false, fn) }

func (s *Store) rangeChains(thaw bool, fn func(k kv.Key, c *Chain) bool) {
	type entry struct {
		k kv.Key
		c *Chain
	}
	var snap []entry
	for i := range s.shards {
		sh := &s.shards[i]
		if thaw {
			sh.thawAll()
		}
		sh.mu.RLock()
		snap = slices.Grow(snap[:0], len(sh.chains))
		for k, c := range sh.chains {
			snap = append(snap, entry{k, c})
		}
		sh.mu.RUnlock()
		for _, e := range snap {
			if !fn(e.k, e.c) {
				return
			}
		}
	}
}

// RangeKeys calls fn for every key in the store until fn returns false,
// in unspecified order, and thaws nothing.
func (s *Store) RangeKeys(fn func(k kv.Key) bool) {
	var snap []kv.Key
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		snap = slices.Grow(snap[:0], len(sh.chains)+sh.rows.live)
		for k := range sh.chains {
			snap = append(snap, k)
		}
		sh.rows.each(func(row []byte) { snap = append(snap, rowKey(row)) })
		sh.mu.RUnlock()
		for _, k := range snap {
			if !fn(k) {
				return
			}
		}
	}
}

// Len returns the number of keys in the store.
func (s *Store) Len() int {
	st := s.Stats()
	return st.Chains + st.Rows
}

// Stats is how much of the store is still rows: the number that explains a
// regression in what the store costs the collector.
type Stats struct {
	Chains int // keys that have a chain
	Rows   int // keys that are a row
	// RowBytes is what the row logs hold, the rows since thawed or dropped
	// included: those bytes are not reclaimed.
	RowBytes int64
	Thaws    uint64 // rows that became chains, ever
}

// Stats walks the shards once.
func (s *Store) Stats() Stats {
	var st Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Chains += len(sh.chains)
		st.Rows += sh.rows.live
		st.RowBytes += int64(sh.rows.bytes())
		st.Thaws += sh.thaws
		sh.mu.RUnlock()
	}
	return st
}

// Compact drops final version records strictly below bound for every key,
// always retaining the newest record below bound so historical reads at
// live snapshots still resolve. Returns the total number of records
// removed. Compaction never touches unresolved records (it is capped at
// each key's watermark).
func (s *Store) Compact(bound tstamp.Timestamp) int {
	total := 0
	s.RangeChains(func(_ kv.Key, c *Chain) bool {
		total += c.Compact(bound)
		return true
	})
	return total
}
