package core

import (
	"context"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

// This file is the server side of the rebalancer's epoch-barrier handoff
// (see rebalance.go for the orchestration and DESIGN.md §10 for the
// protocol). All four handlers run inside the epoch manager's barrier —
// after every revoke ack, before Committed+Grant — so the only traffic that
// can race them is straggler installs of the next epoch, which the seal
// fence rejects (WrongOwner) everywhere but at the move's target.

// handleRangeSeal fences the listed ranges against installs (or lifts the
// fence with Clear). Taking moveMu's write side waits out every install
// that passed the previous fence check and may still be mid-Put, so when
// this returns the store holds everything the fence let through — the
// export that follows cannot miss a record.
func (s *Server) handleRangeSeal(m MsgRangeSeal) {
	s.moveMu.Lock()
	defer s.moveMu.Unlock()
	if !m.Clear {
		s.sealedRanges = append(s.sealedRanges, m.Ranges...)
		return
	}
	if len(m.Ranges) == 0 {
		s.sealedRanges = nil
		return
	}
	kept := s.sealedRanges[:0]
	for _, have := range s.sealedRanges {
		listed := false
		for _, r := range m.Ranges {
			if have == r {
				listed = true
				break
			}
		}
		if !listed {
			kept = append(kept, have)
		}
	}
	s.sealedRanges = kept
}

// handleRangeExport snapshots every version chain inside the range for
// streaming to the new owner. The caller sealed the range first, so no
// install can be adding records concurrently.
func (s *Server) handleRangeExport(m MsgRangeExport) MsgRangeExportResp {
	return MsgRangeExportResp{Keys: s.store.ExportMatching(m.Range.Contains)}
}

// handleRangeImport absorbs exported chains at the new owner. Puts are
// idempotent (a retransmitted import, or a straggler install that raced
// ahead under the new map, leaves the existing record in place), carried
// resolutions install through resolve-once, and unresolved functors
// flow through bufferWork so the processor computes them under the same
// epoch discipline as locally installed ones: epochs the server already
// drained seal and hand off immediately, the sealing epoch's records wait
// for its Committed, and straggler-epoch records wait for theirs.
//
// After the Puts the abort stash is checked under stashMu: a second-round
// abort forwarded here before its record arrived (see handleAbort) now
// finds it and marks it ABORTED — the Put-then-check ordering against
// handleAbort's check-then-stash makes losing an abort impossible.
func (s *Server) handleRangeImport(ctx context.Context, m MsgRangeImport) MsgRangeImportResp {
	_ = ctx
	var resp MsgRangeImportResp
	now := time.Now()
	var work []workItem
	for _, ke := range m.Keys {
		resp.Keys++
		// Each record is staged through the store and handled on the chain
		// that Stage returns: once a record is sealed and final, a fold may
		// retire the chain before the next one arrives.
		var c *mvstore.Chain
		// Records ascend, so the last one published names the horizon that
		// has to pass before the chain's imported history can retire.
		published, newest := false, tstamp.Epoch(0)
		for _, er := range ke.Records {
			ch, rec, err := s.store.Stage(ke.Key, er.Version, er.Functor)
			c = ch
			if err == nil {
				resp.Records++
			}
			if er.Resolution != nil {
				// Final at the old owner: take its outcome whole (reason and
				// dependent writes included) and publish at once.
				rec.Resolve(er.Resolution)
				if err == nil {
					c.Seal(er.Version + 1)
					published, newest = true, er.Version.Epoch()
				}
				continue
			}
			if rec.Final() {
				// The record existed and is already final here.
				continue
			}
			work = append(work, workItem{key: ke.Key, chain: c, rec: rec, installed: now, shard: s.proc.shardOf(ke.Key)})
		}
		if c == nil {
			continue // nothing to import: a key whose history was compacted away
		}
		if ke.Watermark != 0 {
			c.AdvanceWatermark(ke.Watermark)
			s.payOwed(ke.Key, c)
		}
		if published {
			s.sealedIn(newest, ke.Key)
		}
	}
	if len(work) > 0 {
		s.bufferWork(work)
	}
	s.drainAbortStash()
	s.notifyComputed()
	return resp
}

// drainAbortStash applies stashed forwarded aborts whose records have
// arrived, keeping the rest for the next import (or for eviction when
// their epoch commits).
func (s *Server) drainAbortStash() {
	s.stashMu.Lock()
	defer s.stashMu.Unlock()
	for ts, keys := range s.abortStash {
		remaining := keys[:0]
		for _, k := range keys {
			if rec, ok := s.store.At(k, ts); ok {
				rec.Resolve(functor.AbortedByPeer)
			} else {
				remaining = append(remaining, k)
			}
		}
		if len(remaining) == 0 {
			delete(s.abortStash, ts)
		} else {
			s.abortStash[ts] = remaining
		}
	}
}

// handleRangeRetire drops the old owner's replicas of a migrated range.
// Only chains whose records are all final go (dropping an unresolved
// functor would lose it); the rest report as Remaining and the rebalancer
// retries at a later barrier. Keys the current map still routes here are
// skipped — the range may have moved back.
func (s *Server) handleRangeRetire(m MsgRangeRetire) MsgRangeRetireResp {
	var resp MsgRangeRetireResp
	var keys []kv.Key
	s.store.RangeKeys(func(k kv.Key) bool {
		if m.Range.Contains(k) {
			keys = append(keys, k)
		}
		return true
	})
	for _, k := range keys {
		if s.owner(k) == s.id {
			continue
		}
		recs, _, ok := s.store.ExportKey(k)
		if !ok {
			continue
		}
		final := true
		for _, r := range recs {
			if r.Resolution == nil {
				final = false
				break
			}
		}
		if !final {
			resp.Remaining++
			continue
		}
		if s.store.Drop(k) {
			resp.Dropped++
		}
	}
	return resp
}
