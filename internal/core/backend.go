package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/placement"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// handleMessage dispatches every inbound message to the back-end. ctx is
// the transport's handler context and carries the sender's trace context;
// handlers that block or call out re-root it on the server's lifetime via
// engineCtx so a remote caller's deadline never cancels local engine work.
func (s *Server) handleMessage(ctx context.Context, from transport.NodeID, msg any) (any, error) {
	switch m := msg.(type) {
	case MsgInstall:
		return s.handleInstall(ctx, m, nil, false), nil
	case MsgFetch:
		return s.handleFetch(ctx, m)
	case MsgAbortBatch:
		for _, a := range m.Aborts {
			if err := s.handleAbort(ctx, a); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case MsgPush:
		s.pushValue(m.Version, m.Key, readFromPush(m))
		return nil, nil
	case MsgApplyDeferred:
		return nil, s.handleApplyDeferred(ctx, m)
	case MsgWaitComputed:
		return s.handleWaitComputed(ctx, m)
	case MsgScan:
		return s.handleScan(s.engineCtx(ctx), m)
	case MsgClientSubmit:
		return s.handleClientSubmit(ctx, m)
	case MsgClientGet:
		return s.handleClientGet(ctx, m)
	case MsgGrant:
		s.Grant(m.E)
		return nil, nil
	case MsgRevoke:
		s.Revoke(m.E, func() {
			_ = s.conn.Send(s.ctx, from, MsgRevokeAck{E: m.E})
		})
		return nil, nil
	case MsgCommitted:
		s.Committed(m.E)
		return nil, nil
	case MsgPing:
		return s.handlePing(), nil
	default:
		return nil, fmt.Errorf("core: server %d: unexpected message %T", s.id, msg)
	}
}

func readFromPush(m MsgPush) funcRead {
	return funcRead{Value: m.Value, Found: m.Found, Version: m.ValueVersion}
}

// handleInstall is the back-end side of the write-only phase: it checks
// phase-1 constraints, inserts every key-functor pair as an in-epoch
// version, and buffers functor metadata until the epoch commits. The
// install span's context is stamped onto every buffered work item so the
// asynchronous functor.process span (which may start an epoch later)
// remains attached to the transaction's trace.
//
// A coordinator installing on its own partition passes the ownership map it
// routed the writes under (routedHere set; the map is nil before any move):
// while that is still the table's map, the owners it found stand and the
// fence does not route the keys again.
func (s *Server) handleInstall(ctx context.Context, m MsgInstall, routed *placement.Map, routedHere bool) MsgInstallResp {
	ctx, span := s.tr.Start(ctx, "be.install")
	span.SetAttrInt("txns", int64(len(m.Txns)))
	defer span.End()
	sc := trace.FromContext(ctx)
	if m.Placement != nil {
		// A WrongOwner retry carries the map the coordinator learned;
		// adopting it (newest wins) spreads ownership convergence along the
		// install paths, not just from the rebalancer's broadcast.
		s.table.Install(m.Placement)
	}
	resp := MsgInstallResp{Results: make([]InstallResult, len(m.Txns))}
	itemsp := workItemsPool.Get().(*[]workItem)
	items := (*itemsp)[:0]
	now := time.Now()
	// Hold the move interlock's read side across the fence checks and the
	// store Puts: once the rebalancer's seal (the write side) returns, every
	// install that passed the old fence has finished its Puts, so the
	// subsequent range export cannot miss a record.
	s.moveMu.RLock()
	defer s.moveMu.RUnlock()
	for i, txn := range m.Txns {
		if reason := s.placementFence(txn, routedHere && routed == s.table.Map()); reason != "" {
			resp.Results[i] = InstallResult{Err: reason, WrongOwner: true}
			if resp.Placement == nil {
				resp.Placement = s.table.Map()
			}
			continue
		}
		if reason := s.checkRequires(txn.Requires); reason != "" {
			resp.Results[i] = InstallResult{Err: reason}
			continue
		}
		failed := false
		nf, nb := 0, 0
		for _, w := range txn.Writes {
			c, rec, err := s.store.Stage(w.Key, txn.Version, w.Functor)
			if err == mvstore.ErrVersionExists {
				// Retransmitted install: idempotent.
				continue
			}
			if s.durability != nil {
				if err := s.durability.LogInstall(txn.Version, w.Key, w.Functor); err != nil {
					resp.Results[i] = InstallResult{Err: "durability: " + err.Error()}
					failed = true
					break
				}
			}
			s.stats.functorsInstalled.Add(1)
			s.skew.Observe(s.id, string(w.Key))
			nf++
			nb += len(w.Key) + len(w.Functor.Arg)
			items = append(items, workItem{key: w.Key, chain: c, rec: rec, installed: now, sc: sc, shard: s.proc.shardOf(w.Key)})
		}
		if nf > 0 {
			s.journal.Install(uint64(txn.Version.Epoch()), nf, nb, now)
		}
		if failed {
			continue
		}
		resp.Results[i] = InstallResult{OK: true}
	}
	if len(items) > 0 {
		s.bufferWork(items)
	}
	// bufferWork wrote every item into its segment's chunk, where it stays
	// until it is computed; the scratch pins nothing once cleared.
	clear(items)
	*itemsp = items[:0]
	workItemsPool.Put(itemsp)
	return resp
}

// workItemsPool recycles handleInstall's scratch: a batch's items are built
// outside every lock and then appended to their segments in one section of
// the epoch table's lock, so an item is written twice — here, then its
// chunk — and never copied after that.
var workItemsPool = sync.Pool{New: func() any {
	s := make([]workItem, 0, 64)
	return &s
}}

// placementFence rejects an install slice this partition must not accept:
// a key inside a range currently being handed off (sealed by the
// rebalancer's barrier), or a key whose owner at the transaction's epoch is
// another server under a newer ownership map than the coordinator routed
// with. Both come back WrongOwner — the coordinator re-routes with the map
// attached to the response and the same timestamp. owned says the caller
// already routed every write here under the current map, leaving only the
// sealed ranges to check. Callers hold moveMu.R.
func (s *Server) placementFence(txn InstallTxn, owned bool) string {
	e := txn.Version.Epoch()
	for _, w := range txn.Writes {
		for _, r := range s.sealedRanges {
			if r.Contains(w.Key) {
				return fmt.Sprintf("key %q sealed for migration", w.Key)
			}
		}
		if owned {
			continue
		}
		if o := s.ownerAt(w.Key, e); o != s.id {
			return fmt.Sprintf("key %q owned by server %d at epoch %d", w.Key, o, e)
		}
	}
	return ""
}

// checkRequires verifies the phase-1 existence constraints. The referenced
// keys live in tables loaded at epoch 0 (e.g. the TPC-C item table), so a
// plain latest-version probe suffices.
func (s *Server) checkRequires(keys []kv.Key) string {
	for _, k := range keys {
		c, _, ok := s.store.Read(k, tstamp.Max)
		if c != nil {
			ok = c.Latest(tstamp.Max) != nil
		}
		if !ok {
			return fmt.Sprintf("required key %q not found", k)
		}
	}
	return ""
}

// bufferWork appends functor metadata to its (epoch, shard) segment until a
// commit turn takes the epoch (epochTable.buffer). Work for an epoch already
// taken comes back late: it is sealed here so the records are readable, and
// handed to the processor through segments of its own.
func (s *Server) bufferWork(items []workItem) {
	late := s.epochs.buffer(items)
	if late == nil {
		return
	}
	for i := range late {
		late[i].each(0, func(it *workItem) {
			e := it.rec.Version.Epoch()
			if it.chain.Seal(tstamp.End(e)) > 0 {
				s.sealedIn(e, it.key)
			}
		})
	}
	s.proc.handoff(late)
}

// handleAbort is the coordinator's second round: every version the failed
// transaction installed on this partition becomes ABORTED. This happens
// strictly before the epoch commits (the coordinator holds its in-flight
// slot until the round completes), so no reader or processor can have
// resolved the records yet.
//
// Keys whose ownership moved since the install forward one hop to the
// current owner (a migration barrier may have run between the install and
// this abort). At the forwarded-to side a key's migrated record may not
// have been imported yet; those keys stash under stashMu and the import
// applies them — the interlock that keeps an abort from racing past the
// record it must mark.
func (s *Server) handleAbort(ctx context.Context, m AbortReq) error {
	keys := m.Keys
	if !m.Fwd {
		e := m.Version.Epoch()
		var fwd map[int][]kv.Key
		local := keys[:0:0]
		for _, k := range keys {
			if o := s.ownerAt(k, e); o != s.id {
				if fwd == nil {
					fwd = make(map[int][]kv.Key)
				}
				fwd[o] = append(fwd[o], k)
			} else {
				local = append(local, k)
			}
		}
		keys = local
		for o, ks := range fwd {
			if _, err := s.conn.Call(s.engineCtx(ctx), transport.NodeID(o), MsgAbortBatch{Aborts: []AbortReq{{Version: m.Version, Keys: ks, Fwd: true}}}); err != nil {
				return err
			}
		}
	}
	s.stashMu.Lock()
	var stash []kv.Key
	for _, k := range keys {
		if rec, ok := s.store.At(k, m.Version); ok {
			rec.Resolve(functor.AbortedByPeer)
		} else if m.Fwd {
			stash = append(stash, k)
		}
	}
	if len(stash) > 0 {
		s.abortStash[m.Version] = append(s.abortStash[m.Version], stash...)
	}
	s.stashMu.Unlock()
	if s.durability != nil && len(keys) > 0 {
		_ = s.durability.LogAbort(m.Version, keys)
	}
	return nil
}

// handleFetch serves one MsgFetch: remote reads (Algorithm 1's Get,
// computing functors on demand), ensures and ensure-up-tos (§IV-E). Items
// run in parallel: each may trigger on-demand functor computation with its
// own remote fan-out, so serializing them would stack those latencies.
func (s *Server) handleFetch(ctx context.Context, m MsgFetch) (MsgFetchResp, error) {
	ctx, span := s.tr.Start(ctx, "be.fetch")
	span.SetAttrInt("batch", int64(len(m.Reqs)))
	defer span.End()
	ectx := s.engineCtx(ctx)
	var maxV tstamp.Timestamp
	for _, q := range m.Reqs {
		maxV = max(maxV, q.Version)
		if q.Kind == FetchRead {
			s.stats.readsServed.Add(1)
		}
	}
	// The requesting server already waited for the snapshot's epoch to
	// commit, but the Committed broadcast reaches participants one at a
	// time: this partition may not have sealed the epoch yet, and reads and
	// ensures alike see only sealed records. Serving early would miss this
	// epoch's writes — a torn read, or a watermark raised past a staged
	// record that then never computes. One wait on the highest requested
	// version covers every item.
	if err := s.waitVisible(ectx, maxV); err != nil {
		return MsgFetchResp{}, err
	}
	resp := MsgFetchResp{Results: make([]FetchResult, len(m.Reqs))}
	if len(m.Reqs) == 1 {
		resp.Results[0] = s.fetchOne(ectx, m.Reqs[0])
		return resp, nil
	}
	var wg sync.WaitGroup
	for i := range m.Reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Results[i] = s.fetchOne(ectx, m.Reqs[i])
		}(i)
	}
	wg.Wait()
	return resp, nil
}

// fetchOne serves one item of a MsgFetch. A key that migrated away since
// the caller routed goes one hop to its current owner (the second hop
// always serves locally — maps converge within an epoch, so one hop reaches
// the owner in practice, and bounding the hops keeps a map race from
// ping-ponging a request).
func (s *Server) fetchOne(ctx context.Context, q FetchReq) FetchResult {
	if o := s.owner(q.Key); o != s.id && !q.Fwd {
		q.Fwd = true
		raw, err := s.conn.Call(ctx, transport.NodeID(o), MsgFetch{Reqs: []FetchReq{q}})
		if err != nil {
			return FetchResult{Err: err.Error()}
		}
		if resp, ok := raw.(MsgFetchResp); ok && len(resp.Results) == 1 {
			return resp.Results[0]
		}
		return FetchResult{Err: fmt.Sprintf("core: server %d answered a forwarded fetch of %q with %T", o, q.Key, raw)}
	}
	var (
		r   FetchResult
		err error
	)
	switch q.Kind {
	case FetchRead:
		var fr funcRead
		fr, err = s.localRead(ctx, q.Key, q.Version)
		r = FetchResult{Value: fr.Value, Found: fr.Found, Version: fr.Version}
	case FetchEnsure:
		r.Resolution, err = s.ensureLocal(ctx, q.Key, q.Version)
	case FetchUpTo:
		err = s.computeKeyUpTo(ctx, q.Key, q.Version)
	default:
		err = fmt.Errorf("core: unknown fetch kind %d", q.Kind)
	}
	if err != nil {
		return FetchResult{Err: err.Error()}
	}
	return r
}

// handleApplyDeferred applies deferred writes from a determinate functor.
// Statically-declared dependent keys carry markers installed in the
// write-only phase; dynamically-named dependent keys (unknown at install,
// e.g. rows keyed by a freshly allocated id) get their records created
// here, born resolved and sealed — deferred writes happen after their epoch
// committed, and readers (guarded by the dependency rule) see them at once.
// Resolution happens once and record creation is idempotent, so duplicate
// deliveries and races with on-demand marker resolution are harmless. The
// local remainder is applied whatever happens to the forwards; the error
// says that a forward failed, or that a key of the remainder was applied
// where it may not stay (strandedKey), so the sender knows its writes did
// not all land (see computeOne).
func (s *Server) handleApplyDeferred(ctx context.Context, m MsgApplyDeferred) error {
	_, span := s.tr.Start(ctx, "be.deferred")
	span.SetAttrInt("writes", int64(len(m.Writes)))
	defer span.End()
	var err error
	if !m.Fwd {
		m, err = s.forwardDeferred(ctx, m)
	}
	// Hold the move interlock's read side across the check and the applies,
	// as an install does: a range's seal then waits them out, and its export
	// carries what they wrote.
	s.moveMu.RLock()
	defer s.moveMu.RUnlock()
	if k, ok := s.strandedKey(m); ok && err == nil {
		err = fmt.Errorf("core: server %d: deferred write of %q at %v applied to a replica that is handed off or no longer owned", s.id, k, m.Version)
	}
	for _, w := range m.Writes {
		kind, value := deferredOutcome(w)
		if c, fresh := s.store.PutFinal(w.Key, m.Version, kind, value, false); fresh {
			s.stats.functorsInstalled.Add(1)
			// A row is its key's one version: nothing to retire.
			if c != nil {
				s.sealedIn(m.Version.Epoch(), w.Key)
			}
		}
	}
	for _, k := range m.Dissolve {
		if rec, ok := s.store.At(k, m.Version); ok {
			if m.Aborted {
				rec.Resolve(_abortResolutionDeferred)
			} else {
				rec.Resolve(_skipResolutionShared)
			}
		}
	}
	s.notifyComputed()
	return err
}

// strandedKey names a key of a deferred-write delivery that this server
// applies without holding it for good: one inside a range sealed for a
// handoff, whose export may have been taken already, or one the current
// map routes to another server, moved since the sender routed it. Its
// write reaches the replica that serves reads only through an ensure of the
// determinate version, which must therefore keep it. Callers hold moveMu.R.
func (s *Server) strandedKey(m MsgApplyDeferred) (kv.Key, bool) {
	stranded := func(k kv.Key) bool {
		if s.owner(k) != s.id {
			return true
		}
		for _, r := range s.sealedRanges {
			if r.Contains(k) {
				return true
			}
		}
		return false
	}
	for _, w := range m.Writes {
		if stranded(w.Key) {
			return w.Key, true
		}
	}
	for _, k := range m.Dissolve {
		if stranded(k) {
			return k, true
		}
	}
	return "", false
}

// forwardDeferred splits a deferred-write delivery by current ownership:
// writes and dissolve keys that migrated away go one hop to their new owner
// (Fwd set so the receiver applies locally), and the returned message keeps
// only the still-local remainder. Deliveries are idempotent (resolution is
// once, record creation tolerates duplicates), so a failed forward is
// retried by nothing worse than the reader-side on-demand path, and it is
// reported: the error names the first forward that failed.
func (s *Server) forwardDeferred(ctx context.Context, m MsgApplyDeferred) (MsgApplyDeferred, error) {
	foreign := false
	for _, w := range m.Writes {
		if s.owner(w.Key) != s.id {
			foreign = true
			break
		}
	}
	if !foreign {
		for _, k := range m.Dissolve {
			if s.owner(k) != s.id {
				foreign = true
				break
			}
		}
	}
	if !foreign {
		return m, nil
	}
	var (
		localW []functor.DependentWrite
		localD []kv.Key
		fwd    = make(map[int]*MsgApplyDeferred)
	)
	peer := func(o int) *MsgApplyDeferred {
		f := fwd[o]
		if f == nil {
			f = &MsgApplyDeferred{Version: m.Version, Aborted: m.Aborted, Fwd: true}
			fwd[o] = f
		}
		return f
	}
	for _, w := range m.Writes {
		if o := s.owner(w.Key); o != s.id {
			peer(o).Writes = append(peer(o).Writes, w)
		} else {
			localW = append(localW, w)
		}
	}
	for _, k := range m.Dissolve {
		if o := s.owner(k); o != s.id {
			peer(o).Dissolve = append(peer(o).Dissolve, k)
		} else {
			localD = append(localD, k)
		}
	}
	ectx := s.engineCtx(ctx)
	var failed error
	for o, f := range fwd {
		if _, err := s.conn.Call(ectx, transport.NodeID(o), *f); err != nil && failed == nil {
			failed = fmt.Errorf("core: server %d: forwarding deferred writes of %v to server %d: %w", s.id, m.Version, o, err)
		}
	}
	m.Writes, m.Dissolve = localW, localD
	return m, failed
}

// handleClientSubmit coordinates a remote client's transaction.
func (s *Server) handleClientSubmit(ctx context.Context, m MsgClientSubmit) (MsgClientSubmitResp, error) {
	ctx = s.engineCtx(ctx)
	h, err := s.Submit(ctx, Txn{Writes: m.Writes, Requires: m.Requires})
	if err != nil {
		return MsgClientSubmitResp{}, err
	}
	resp := MsgClientSubmitResp{Version: h.Version()}
	if aborted, reason := h.Installed(); aborted {
		resp.Aborted = true
		resp.Reason = reason
		return resp, nil
	}
	if m.WaitComputed {
		committed, reason, err := h.Await(ctx)
		if err != nil {
			return MsgClientSubmitResp{}, err
		}
		resp.Aborted = !committed
		resp.Reason = reason
	}
	return resp, nil
}

// handleClientGet serves a remote client's serializable read.
func (s *Server) handleClientGet(ctx context.Context, m MsgClientGet) (MsgClientGetResp, error) {
	ctx = s.engineCtx(ctx)
	var (
		v     kv.Value
		found bool
		err   error
	)
	if m.Snapshot != tstamp.Zero {
		v, found, err = s.GetAt(ctx, m.Key, m.Snapshot)
	} else {
		v, found, err = s.Get(ctx, m.Key)
	}
	if err != nil {
		return MsgClientGetResp{}, err
	}
	return MsgClientGetResp{Value: v, Found: found}, nil
}

// handleWaitComputed blocks until the record reaches a final state. Used by
// clients choosing the "acknowledge after functor computing" option.
func (s *Server) handleWaitComputed(ctx context.Context, m MsgWaitComputed) (MsgWaitComputedResp, error) {
	// A record that has been folded into its key's row or history is final,
	// and the row says how: reading it there keeps the key as it is.
	c, row, isRow := s.store.Read(m.Key, m.Version)
	if isRow && row.Version == m.Version {
		return MsgWaitComputedResp{Kind: row.Kind}, nil
	}
	var rec *mvstore.Record
	switch {
	case c != nil:
		rec = c.At(m.Version)
	case isRow:
		// A version of a history that a read passes over, aborted or
		// skipped: a fresh final record of it, its reason included.
		rec, _ = s.store.At(m.Key, m.Version)
	}
	if rec == nil {
		// The record may have migrated away; chase it one hop.
		if !m.Fwd {
			if o := s.owner(m.Key); o != s.id {
				raw, err := s.conn.Call(s.engineCtx(ctx), transport.NodeID(o), MsgWaitComputed{Key: m.Key, Version: m.Version, Fwd: true})
				if err != nil {
					return MsgWaitComputedResp{}, err
				}
				if resp, ok := raw.(MsgWaitComputedResp); ok {
					return resp, nil
				}
				return MsgWaitComputedResp{}, fmt.Errorf("core: server %d answered a forwarded wait on %q with %T", o, m.Key, raw)
			}
		}
		return MsgWaitComputedResp{}, fmt.Errorf("core: server %d: record %q@%v not found", s.id, m.Key, m.Version)
	}
	if err := s.waitRecordFinal(ctx, rec); err != nil {
		return MsgWaitComputedResp{}, err
	}
	kind, _, ext := rec.Outcome()
	resp := MsgWaitComputedResp{Kind: kind}
	if ext != nil {
		resp.Reason = ext.Reason
	}
	return resp, nil
}
