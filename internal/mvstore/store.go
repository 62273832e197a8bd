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
// keys to version chains.
type Store struct {
	shards []shard
}

type shard struct {
	mu     sync.RWMutex
	chains map[kv.Key]*Chain
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

func (s *Store) shardFor(k kv.Key) *shard {
	return &s.shards[kv.Hash(k)%uint64(len(s.shards))]
}

// Chain returns the key's chain, or nil if the key has never been written.
// Callers that touch one key more than once hold on to the chain instead
// of addressing the store by key again.
func (s *Store) Chain(k kv.Key) *Chain {
	sh := s.shardFor(k)
	sh.mu.RLock()
	c := sh.chains[k]
	sh.mu.RUnlock()
	return c
}

// ChainOrCreate returns the key's chain, creating it if needed.
func (s *Store) ChainOrCreate(k kv.Key) *Chain {
	sh := s.shardFor(k)
	sh.mu.RLock()
	c := sh.chains[k]
	sh.mu.RUnlock()
	if c != nil {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c = sh.chains[k]; c == nil {
		c = new(Chain)
		sh.chains[k] = c
	}
	return c
}

// The key-addressed forms below are one probe plus the Chain method of the
// same name, for callers that touch a key once.

// Put installs a functor as a new in-epoch version of key k.
func (s *Store) Put(k kv.Key, version tstamp.Timestamp, fn *functor.Functor) (*Record, error) {
	return s.ChainOrCreate(k).Put(version, fn)
}

// Seal makes k's staged records with versions strictly below bound
// readable.
func (s *Store) Seal(k kv.Key, bound tstamp.Timestamp) {
	if c := s.Chain(k); c != nil {
		c.Seal(bound)
	}
}

// SealAll seals every key up to bound; recovery and replica promotion use
// it to publish a rebuilt store in one sweep.
func (s *Store) SealAll(bound tstamp.Timestamp) {
	s.Range(func(_ kv.Key, c *Chain) bool {
		c.Seal(bound)
		return true
	})
}

// Latest returns the newest record of k with Version <= max.
func (s *Store) Latest(k kv.Key, max tstamp.Timestamp) (*Record, bool) {
	c := s.Chain(k)
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
	c := s.Chain(k)
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

// AdvanceWatermark raises k's value watermark to at least v.
func (s *Store) AdvanceWatermark(k kv.Key, v tstamp.Timestamp) {
	s.ChainOrCreate(k).AdvanceWatermark(v)
}

// Range calls fn for every key in the store until fn returns false. The
// iteration order is unspecified. Chains observed through fn are live: new
// versions may be inserted concurrently, but each View() call returns a
// consistent snapshot.
func (s *Store) Range(fn func(k kv.Key, c *Chain) bool) {
	type entry struct {
		k kv.Key
		c *Chain
	}
	var snap []entry
	for i := range s.shards {
		sh := &s.shards[i]
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
// in unspecified order.
func (s *Store) RangeKeys(fn func(k kv.Key) bool) {
	s.Range(func(k kv.Key, _ *Chain) bool { return fn(k) })
}

// Len returns the number of keys in the store.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.chains)
		sh.mu.RUnlock()
	}
	return n
}

// Compact drops final version records strictly below bound for every key,
// always retaining the newest record below bound so historical reads at
// live snapshots still resolve. Returns the total number of records
// removed. Compaction never touches unresolved records (it is capped at
// each key's watermark).
func (s *Store) Compact(bound tstamp.Timestamp) int {
	total := 0
	s.Range(func(_ kv.Key, c *Chain) bool {
		total += c.Compact(bound)
		return true
	})
	return total
}
