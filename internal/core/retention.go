package core

import (
	"context"
	"fmt"
	"sync"

	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// This file adds two operational features on top of the paper's design:
// version retention (garbage collection of old final versions, which any
// production multi-version store needs) and snapshot prefix scans (the
// paper motivates historical read-only transactions for analytics, §IV-A;
// scans let them enumerate keys without knowing them ahead of time).

// SetRetention configures how many epochs of history every server keeps;
// each epoch commit then retires the versions that fell behind the horizon.
// Zero (the default) keeps everything. It may be lowered or raised while
// the cluster runs.
//
// Compaction never touches the newest final version below the horizon, so
// reads at any snapshot within the retained window — and the latest state
// as of any older snapshot — stay servable; truly historical reads below
// the horizon observe the collapsed value, the same contract as
// checkpoint recovery.
func (c *Cluster) SetRetention(epochs tstamp.Epoch) {
	for _, srv := range c.servers {
		was := srv.retention.Swap(uint32(epochs))
		switch {
		case epochs == 0:
			srv.epochs.dropRetire()
		case was == 0 && c.started:
			// Nothing was filed while everything was kept.
			srv.seedRetirement()
		}
	}
}

// Retirement is what makes an epoch commit cost what the epoch wrote: per
// epoch, the epoch table files the keys that gained a readable version of
// that epoch (epochRec.retire). A version of epoch x makes everything older
// on its key droppable once the horizon has passed x, so the commit that
// moves the horizon past x visits list x — those keys and no others — and
// compacts each where it lies, chain or history (mvstore.Store.CompactKey).

// sealedIn is called wherever the live path makes a version of epoch e
// readable on keys: the commit's seal loop, a straggler's seal, a deferred
// write and a range import. It files the store's copy of each key: one
// decoded from a frame aliases the frame, which a list would pin.
func (s *Server) sealedIn(e tstamp.Epoch, keys ...kv.Key) {
	if len(keys) == 0 || s.retention.Load() == 0 {
		return
	}
	for i, k := range keys {
		keys[i] = s.store.Key(k)
	}
	s.epochs.file(e, keys)
}

// seedRetirement files every key of the store that is no row under the
// newest committed epoch: a store that live installs did not build (WAL
// recovery, a checkpoint, a bulk load) or built while retention was off has
// keys no list knows. It is the one full pass over the store retention
// makes; a row is a single version and never has anything to retire.
func (s *Server) seedRetirement() {
	var keys []kv.Key
	s.store.RangeHistories(func(k kv.Key) bool {
		keys = append(keys, k)
		return true
	})
	s.sealedIn(s.CommittedEpoch(), keys...)
}

// retire compacts, at the commit of an epoch, the keys of the epochs the
// horizon has just passed. A chain whose watermark is still behind the
// horizon keeps the horizon (mvstore.Chain.Owed) and is finished where its
// watermark moves: payOwed.
func (s *Server) retire(committed tstamp.Epoch) {
	retention := tstamp.Epoch(s.retention.Load())
	if retention == 0 || committed <= retention {
		return
	}
	limit := committed - retention
	horizon := tstamp.Start(limit)
	removed := 0
	for list := s.epochs.retireBelow(limit); list != nil; list = s.epochs.retireBelow(limit) {
		for _, k := range list {
			removed += s.store.CompactKey(k, horizon)
		}
	}
	s.stats.versionsCompacted.Add(uint64(removed))
}

// payOwed finishes the compaction c, k's chain, owes, if any, after its
// watermark has moved.
func (s *Server) payOwed(k kv.Key, c *mvstore.Chain) {
	if h := c.Owed(); h != 0 {
		s.stats.versionsCompacted.Add(uint64(s.store.CompactKey(k, h)))
	}
}

// ScanPrefix reads every key with the given prefix at one consistent
// snapshot, assembling a serializable read-only analytic transaction
// across all partitions. The snapshot may be historical (served
// immediately) or in the current epoch (waits for its commit).
//
// Scans enumerate keys that have at least one installed record. Rows
// created dynamically by determinate functors (deferred writes to keys
// named during computation, §IV-E) become enumerable once the determinate
// functor computes — which the asynchronous processors do shortly after
// each epoch commits; a caller needing a hard guarantee reads the
// determinate keys at the snapshot first, which computes them, or reads
// through the dependency rule.
func (s *Server) ScanPrefix(ctx context.Context, prefix kv.Key, snapshot tstamp.Timestamp) (map[kv.Key]kv.Value, error) {
	if err := s.waitVisible(ctx, snapshot); err != nil {
		return nil, err
	}
	// One scan RPC per partition, in parallel: a scan's cost is dominated
	// by the slowest partition (each reads through the full Algorithm-1
	// path), so fanning out sequentially would sum those latencies.
	resps := make([]MsgScanResp, s.n)
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for owner := 0; owner < s.n; owner++ {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			if owner == s.id {
				resps[owner], errs[owner] = s.handleScan(ctx, MsgScan{Prefix: prefix, Snapshot: snapshot})
				return
			}
			raw, err := s.conn.Call(ctx, transport.NodeID(owner), MsgScan{Prefix: prefix, Snapshot: snapshot})
			if err != nil {
				errs[owner] = fmt.Errorf("core: scan partition %d: %w", owner, err)
				return
			}
			resp, ok := raw.(MsgScanResp)
			if !ok {
				errs[owner] = fmt.Errorf("core: scan: unexpected response %T", raw)
				return
			}
			resps[owner] = resp
		}(owner)
	}
	wg.Wait()
	out := make(map[kv.Key]kv.Value)
	for owner := 0; owner < s.n; owner++ {
		if errs[owner] != nil {
			return nil, errs[owner]
		}
		for _, p := range resps[owner].Pairs {
			out[p.Key] = p.Value
		}
	}
	return out, nil
}

// handleScan serves one partition's slice of a prefix scan.
func (s *Server) handleScan(ctx context.Context, m MsgScan) (MsgScanResp, error) {
	var (
		resp    MsgScanResp
		scanErr error
	)
	// Remote scans arrive while the Committed broadcast may still be in
	// flight toward this partition; serve only sealed snapshots.
	if err := s.waitVisible(ctx, m.Snapshot); err != nil {
		return MsgScanResp{}, err
	}
	// Range over keys; read each at the snapshot through the full
	// Algorithm-1 path (computes functors on demand, honors dependency
	// rules, skips aborted versions).
	s.store.RangeKeys(func(k kv.Key) bool {
		if len(k) < len(m.Prefix) || k[:len(m.Prefix)] != m.Prefix {
			return true
		}
		// A migrated-away key's not-yet-retired replica still lives in this
		// store; its current owner reports it (the scan fans out to every
		// partition), so listing it here would duplicate — and possibly
		// staleify — the result.
		if s.owner(k) != s.id {
			return true
		}
		r, err := s.localRead(ctx, k, m.Snapshot)
		if err != nil {
			scanErr = err
			return false
		}
		if r.Found {
			resp.Pairs = append(resp.Pairs, kv.Pair{Key: k, Value: r.Value})
		}
		return true
	})
	if scanErr != nil {
		return MsgScanResp{}, scanErr
	}
	return resp, nil
}
