package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// Txn is one client transaction expressed, as in the paper's model (§IV-A),
// as a write set of key-functor pairs (the read sets live inside the
// functors) plus optional phase-1 existence requirements.
type Txn struct {
	// Writes are the key-functor pairs of the write-only phase.
	Writes []Write
	// Requires lists keys that must exist for the install to succeed;
	// each is checked on the partition owning it.
	Requires []kv.Key
}

// TxnResult reports the outcome of a transaction's write-only phase.
type TxnResult struct {
	// Version is the transaction's timestamp (zero if no timestamp was
	// assigned).
	Version tstamp.Timestamp
	// Aborted is set when phase 1 failed and the second round rolled the
	// transaction back.
	Aborted bool
	// Reason explains an abort.
	Reason string
	// AbortIncomplete is set alongside Aborted when the second-round
	// rollback could not be acknowledged by every partition that may hold
	// the transaction's installs within the retry budget. The outcome is
	// then indeterminate rather than cleanly aborted: an unreachable
	// partition may expose the installs once its epoch commits, unless
	// crash recovery replays the abort from the coordinator's log.
	AbortIncomplete bool
}

// ErrRerouteExhausted is the abort reason recorded when a transaction's
// installs kept bouncing off stale-ownership rejections past the
// wrongOwnerRetries budget — every round adopted a newer placement map and
// resent, and the last round was still told WrongOwner. Seeing it means
// placement is churning faster than the coordinator can chase it (or a
// partition is stuck answering with a map it never updates).
var ErrRerouteExhausted = errors.New("core: install rerouting exhausted its retry budget")

// RerouteExhausted reports whether this abort was the WrongOwner
// retry-budget fallback rather than a phase-1 conflict or constraint
// failure. Callers that drive live migration can treat it as a retryable
// routing failure instead of a semantic abort.
func (r TxnResult) RerouteExhausted() bool {
	return r.Aborted && r.Reason == ErrRerouteExhausted.Error()
}

// Submit runs one read-write transaction's write-only phase: assign a
// timestamp in the current epoch, install every functor on its partition,
// and on any phase-1 failure run the second round that aborts the
// transaction everywhere (paper §IV-A, §V-A2). The returned handle lets the
// caller choose between the two acknowledgment options: installed (phase 1
// complete) or fully computed.
func (s *Server) Submit(ctx context.Context, txn Txn) (*TxnHandle, error) {
	results, handles, err := s.SubmitBatch(ctx, []Txn{txn})
	if err != nil {
		return nil, err
	}
	_ = results
	return handles[0], nil
}

// SubmitBatch runs many transactions' write-only phases with one install
// message per involved partition, the batching convention the paper uses
// for its apples-to-apples RPC comparison with Calvin.
func (s *Server) SubmitBatch(ctx context.Context, txns []Txn) ([]TxnResult, []*TxnHandle, error) {
	if len(txns) == 0 {
		return nil, nil, nil
	}
	start := time.Now()
	// The transaction's trace root: it covers the write-only phase (fan-out
	// installs plus any second-round aborts). Asynchronous children —
	// visibility wait, functor processing, deferred writes — attach to the
	// same trace through the contexts and work items derived from it, and
	// the slow-capture policy keys off this span's duration.
	ctx, root := s.tr.StartRoot(ctx, "txn.submit")
	root.SetAttrInt("txns", int64(len(txns)))
	defer root.End()
	rootSC := trace.FromContext(ctx)
	e, err := s.beginTxn(len(txns))
	if err != nil {
		return nil, nil, err
	}
	defer s.endTxn(e)

	results := make([]TxnResult, len(txns))
	handles := make([]*TxnHandle, len(txns))

	// Assign timestamps and fan writes out by partition. A batch involves a
	// handful of partitions, so the per-owner grouping is a linear-scan slice
	// rather than a map — same reasoning as the per-transaction grouping
	// below, and it saves a map allocation per batch on the hot path.
	type ownerBatch struct {
		owner  int
		slices []installSlice
	}
	var perOwner []ownerBatch
	batchFor := func(o int) *ownerBatch {
		for j := range perOwner {
			if perOwner[j].owner == o {
				return &perOwner[j]
			}
		}
		perOwner = append(perOwner, ownerBatch{owner: o})
		return &perOwner[len(perOwner)-1]
	}
	versions := make([]tstamp.Timestamp, len(txns))
	// Read the ownership map before routing: if it is still the table's map
	// when the local install runs its fence, every owner found below stands.
	routed := s.table.Map()
	for i := range txns {
		ts, err := s.gen.Next()
		if err != nil {
			return nil, nil, fmt.Errorf("core: assign timestamp: %w", err)
		}
		versions[i] = ts
		results[i].Version = ts
		withMarkers := expandDependentMarkers(txns[i].Writes)
		s.splitByOwner(ts, withMarkers, txns[i].Requires, func(owner int, inst InstallTxn) {
			b := batchFor(owner)
			b.slices = append(b.slices, installSlice{txnIdx: i, inst: inst})
		})
		handles[i] = &TxnHandle{s: s, version: ts, writes: withMarkers, sc: rootSC}
	}

	// One install call per partition, in parallel.
	type ownerOutcome struct {
		owner   int
		slices  []installSlice
		resp    MsgInstallResp
		callErr error
	}
	outcomes := make([]ownerOutcome, 0, len(perOwner))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ob := range perOwner {
		wg.Add(1)
		go func(owner int, slices []installSlice) {
			defer wg.Done()
			ictx, span := s.tr.Start(ctx, "txn.install")
			span.SetAttrInt("owner", int64(owner))
			defer span.End()
			msg := MsgInstall{Txns: make([]InstallTxn, len(slices))}
			for i, sl := range slices {
				msg.Txns[i] = sl.inst
			}
			var resp MsgInstallResp
			var callErr error
			if owner == s.id {
				resp = s.handleInstall(ictx, msg, routed, true)
			} else {
				raw, err := s.conn.Call(ictx, transport.NodeID(owner), msg)
				if err != nil {
					callErr = err
				} else if r, ok := raw.(MsgInstallResp); ok {
					resp = r
				} else {
					callErr = fmt.Errorf("core: install: unexpected response %T", raw)
				}
			}
			mu.Lock()
			outcomes = append(outcomes, ownerOutcome{owner: owner, slices: slices, resp: resp, callErr: callErr})
			mu.Unlock()
		}(ob.owner, ob.slices)
	}
	wg.Wait()

	// Determine per-transaction outcomes, remembering every partition a
	// transaction wrote to. The second round must over-send rather than
	// under-send: a partition whose install call errored may still have
	// applied the request (only the response was lost), and a partition
	// that rejected a batch item can have installed a prefix of its writes
	// before the durability failure — while aborting a version that never
	// landed is a harmless no-op. Aborts are the rare path, so only the
	// write slices are recorded; the key lists for the abort messages are
	// extracted lazily instead of allocating one per install.
	type wroteAt struct {
		owner  int
		writes []Write
	}
	wrote := make([][]wroteAt, len(txns))
	var wrongOwner []installSlice
	for _, oc := range outcomes {
		for j, sl := range oc.slices {
			i := sl.txnIdx
			if len(sl.inst.Writes) > 0 {
				wrote[i] = append(wrote[i], wroteAt{owner: oc.owner, writes: sl.inst.Writes})
			}
			switch {
			case oc.callErr != nil:
				results[i].Aborted = true
				results[i].Reason = oc.callErr.Error()
			case j < len(oc.resp.Results) && oc.resp.Results[j].WrongOwner:
				// Stale-generation routing: the partition's ownership map is
				// newer than ours. Nothing was installed there; adopt its map
				// and resend the slice — same timestamp — to whoever the new
				// map says owns the keys.
				s.table.Install(oc.resp.Placement)
				wrongOwner = append(wrongOwner, sl)
			case j < len(oc.resp.Results) && !oc.resp.Results[j].OK:
				results[i].Aborted = true
				results[i].Reason = oc.resp.Results[j].Err
			}
		}
	}
	if len(wrongOwner) > 0 {
		s.retryWrongOwner(ctx, wrongOwner, results, func(i int, owner int, writes []Write) {
			wrote[i] = append(wrote[i], wroteAt{owner: owner, writes: writes})
		})
	}

	// Second round: abort failed transactions on every partition that may
	// have installed them, one message per involved partition — a failed
	// batch can abort many transactions on the same peer, so their per-txn
	// aborts combine into one MsgAbortBatch.
	var abortsByOwner map[int][]AbortReq
	var abortTxnsByOwner map[int][]int
	for i := range txns {
		if !results[i].Aborted {
			s.stats.txnsCommitted.Add(1)
			continue
		}
		s.stats.txnsAborted.Add(1)
		handles[i].abortedInstall = true
		handles[i].reason = results[i].Reason
		for _, wa := range wrote[i] {
			keys := make([]kv.Key, len(wa.writes))
			for wi, w := range wa.writes {
				keys[wi] = w.Key
			}
			if abortsByOwner == nil {
				abortsByOwner = make(map[int][]AbortReq)
				abortTxnsByOwner = make(map[int][]int)
			}
			abortsByOwner[wa.owner] = append(abortsByOwner[wa.owner], AbortReq{Version: versions[i], Keys: keys})
			abortTxnsByOwner[wa.owner] = append(abortTxnsByOwner[wa.owner], i)
		}
	}
	for owner, aborts := range abortsByOwner {
		if owner == s.id {
			for ai, a := range aborts {
				if err := s.handleAbort(ctx, a); err != nil {
					// A forward to a new owner failed; same uncertainty as
					// an unreachable partition below.
					i := abortTxnsByOwner[owner][ai]
					results[i].AbortIncomplete = true
					handles[i].abortIncomplete = true
				}
			}
			continue
		}
		// The call rides ctx — the root-bearing context, so the abort
		// round's RPCs stay inside the transaction's trace — and is
		// synchronous and retried: the in-flight slot must outlive the
		// rollback so the epoch cannot commit with the transaction
		// half-installed, and a transiently unreachable partition (dropped
		// request, healing partition) usually acknowledges within the retry
		// budget.
		if !s.callAbortRetry(ctx, owner, MsgAbortBatch{Aborts: aborts}) {
			// The partition stayed unreachable. Unless crash recovery
			// replays the abort from its log, the installs may surface
			// when the epoch commits; surface the uncertainty to the
			// caller instead of pretending the rollback happened.
			for _, i := range abortTxnsByOwner[owner] {
				results[i].AbortIncomplete = true
				handles[i].abortIncomplete = true
			}
		}
	}
	// Classify aborts after the second round so an unacknowledged rollback
	// lands in the crash-indeterminate bucket rather than its original
	// reason.
	for i := range txns {
		if results[i].Aborted {
			s.stats.recordAbortReason(results[i].Reason, results[i].AbortIncomplete)
		}
	}
	s.stats.recordInstall(time.Since(start))
	return results, handles, nil
}

// splitByOwner hands emit one InstallTxn per partition that owns some of a
// transaction's writes or required keys, in order of first appearance.
// Installs route at the transaction's epoch, not at the newest placement: a
// move taking effect next epoch must not steer this epoch's writes to the
// new owner early (the move's From-epoch fence, placement.Move).
//
// A transaction whose keys all have one owner — nine NewOrders in ten —
// passes its own slices on as they are: nothing downstream writes through
// an InstallTxn's slices. Otherwise each owner's share is counted first and
// allocated once.
func (s *Server) splitByOwner(ts tstamp.Timestamp, writes []Write, requires []kv.Key, emit func(owner int, inst InstallTxn)) {
	e := ts.Epoch()
	var buf [32]int // a NewOrder's keys; longer transactions spill to the heap
	owners := buf[:0]
	for i := range writes {
		owners = append(owners, s.ownerAt(writes[i].Key, e))
	}
	for _, rk := range requires {
		owners = append(owners, s.ownerAt(rk, e))
	}
	if len(owners) == 0 {
		return
	}
	single := true
	for _, o := range owners[1:] {
		if o != owners[0] {
			single = false
			break
		}
	}
	if single {
		emit(owners[0], InstallTxn{Version: ts, Writes: writes, Requires: requires})
		return
	}
	// Transactions touch a handful of partitions, so a linear scan over a
	// small slice beats a map allocation per transaction.
	type share struct {
		owner, writes, requires int
		inst                    InstallTxn
	}
	var sbuf [4]share
	shares := sbuf[:0]
	shareOf := func(o int) *share {
		for j := range shares {
			if shares[j].owner == o {
				return &shares[j]
			}
		}
		shares = append(shares, share{owner: o})
		return &shares[len(shares)-1]
	}
	writeOwners, requireOwners := owners[:len(writes)], owners[len(writes):]
	for _, o := range writeOwners {
		shareOf(o).writes++
	}
	for _, o := range requireOwners {
		shareOf(o).requires++
	}
	for j := range shares {
		sh := &shares[j]
		sh.inst = InstallTxn{Version: ts, Writes: make([]Write, 0, sh.writes)}
		if sh.requires > 0 {
			sh.inst.Requires = make([]kv.Key, 0, sh.requires)
		}
	}
	for i, o := range writeOwners {
		inst := &shareOf(o).inst
		inst.Writes = append(inst.Writes, writes[i])
	}
	for i, o := range requireOwners {
		inst := &shareOf(o).inst
		inst.Requires = append(inst.Requires, requires[i])
	}
	for j := range shares {
		emit(shares[j].owner, shares[j].inst)
	}
}

// installSlice is one transaction's writes destined for one partition
// (shared by SubmitBatch's initial fan-out and the WrongOwner retry path).
type installSlice struct {
	txnIdx int
	inst   InstallTxn
}

// wrongOwnerRetries bounds how many times a stale-generation install is
// re-routed before the transaction falls back to a normal abort. A
// rejection during the migration barrier itself answers with the
// pre-handoff map, so the first retry can bounce too; the backoff lets the
// barrier finish and the new map reach the rejecting server.
const wrongOwnerRetries = 6

// retryWrongOwner resends install slices that a partition rejected with
// WrongOwner: each round re-groups the slices' writes under the newest
// adopted ownership map — at the transaction's original epoch, with its
// original timestamp — and sends them to the owners the map names now.
// Rejections with a newer map feed the next round; exhausting the budget
// aborts the transaction through the caller's normal second round. noteWrote
// records every send so over-sent aborts reach every partition that may
// hold an install.
func (s *Server) retryWrongOwner(ctx context.Context, pending []installSlice, results []TxnResult, noteWrote func(txnIdx, owner int, writes []Write)) {
	backoff := time.Millisecond
	for attempt := 0; len(pending) > 0 && attempt < wrongOwnerRetries; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
			case <-s.ctx.Done():
				timer.Stop()
			}
			if backoff < 20*time.Millisecond {
				backoff *= 2
			}
		}
		// Re-group every pending slice by current ownership; one slice can
		// split across owners when the map moved only part of its keys.
		type ownerBatch struct {
			owner  int
			slices []installSlice
		}
		var perOwner []ownerBatch
		add := func(o int, sl installSlice) {
			for j := range perOwner {
				if perOwner[j].owner == o {
					perOwner[j].slices = append(perOwner[j].slices, sl)
					return
				}
			}
			perOwner = append(perOwner, ownerBatch{owner: o, slices: []installSlice{sl}})
		}
		for _, sl := range pending {
			if results[sl.txnIdx].Aborted {
				// Another slice already failed the transaction; the second
				// round will roll it back, don't grow its footprint.
				continue
			}
			s.splitByOwner(sl.inst.Version, sl.inst.Writes, sl.inst.Requires, func(owner int, inst InstallTxn) {
				add(owner, installSlice{txnIdx: sl.txnIdx, inst: inst})
			})
		}
		pending = pending[:0]
		for _, ob := range perOwner {
			msg := MsgInstall{Txns: make([]InstallTxn, len(ob.slices)), Placement: s.table.Map()}
			for i, sl := range ob.slices {
				msg.Txns[i] = sl.inst
			}
			var resp MsgInstallResp
			if ob.owner == s.id {
				resp = s.handleInstall(ctx, msg, nil, false)
			} else {
				raw, err := s.conn.Call(ctx, transport.NodeID(ob.owner), msg)
				if err != nil {
					for _, sl := range ob.slices {
						results[sl.txnIdx].Aborted = true
						results[sl.txnIdx].Reason = err.Error()
					}
					continue
				}
				var ok bool
				if resp, ok = raw.(MsgInstallResp); !ok {
					for _, sl := range ob.slices {
						results[sl.txnIdx].Aborted = true
						results[sl.txnIdx].Reason = fmt.Sprintf("core: install retry: unexpected response %T", raw)
					}
					continue
				}
			}
			for j, sl := range ob.slices {
				if len(sl.inst.Writes) > 0 {
					noteWrote(sl.txnIdx, ob.owner, sl.inst.Writes)
				}
				switch {
				case j < len(resp.Results) && resp.Results[j].WrongOwner:
					s.table.Install(resp.Placement)
					pending = append(pending, sl)
				case j < len(resp.Results) && !resp.Results[j].OK:
					results[sl.txnIdx].Aborted = true
					results[sl.txnIdx].Reason = resp.Results[j].Err
				}
			}
		}
	}
	for _, sl := range pending {
		if !results[sl.txnIdx].Aborted {
			results[sl.txnIdx].Aborted = true
			results[sl.txnIdx].Reason = ErrRerouteExhausted.Error()
		}
	}
}

// abortRetryBackoff is the pause before the first second-round abort
// redelivery; it doubles per attempt up to 50 ms.
const abortRetryBackoff = 2 * time.Millisecond

// callAbortRetry delivers one second-round abort message, retrying with
// exponential backoff while the partition is unreachable. It returns false
// when the budget is exhausted without an acknowledged delivery.
func (s *Server) callAbortRetry(ctx context.Context, owner int, msg MsgAbortBatch) bool {
	backoff := abortRetryBackoff
	for attempt := 0; attempt < s.abortRetries; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return false
			case <-s.ctx.Done():
				timer.Stop()
				return false
			}
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
		}
		if _, err := s.conn.Call(ctx, transport.NodeID(owner), msg); err == nil {
			return true
		}
	}
	return false
}

// expandDependentMarkers adds a DEP-MARKER write for every dependent key
// named by a determinate functor that is not already in the write set
// (paper §IV-E: dependent keys store no concrete functor in the write-only
// phase; the marker realizes the "watermark of the determinate key" rule as
// an explicit placeholder).
func expandDependentMarkers(writes []Write) []Write {
	var markers []Write
	for _, w := range writes {
		for _, dk := range w.Functor.DependentKeys {
			exists := false
			for _, w2 := range writes {
				if w2.Key == dk {
					exists = true
					break
				}
			}
			for _, m := range markers {
				if m.Key == dk {
					exists = true
					break
				}
			}
			if !exists {
				markers = append(markers, Write{Key: dk, Functor: functor.DepMarker(w.Key)})
			}
		}
	}
	if len(markers) == 0 {
		return writes
	}
	out := make([]Write, 0, len(writes)+len(markers))
	out = append(out, writes...)
	return append(out, markers...)
}

// TxnHandle tracks one submitted transaction across the acknowledgment
// options of §IV-A.
type TxnHandle struct {
	s               *Server
	version         tstamp.Timestamp
	writes          []Write
	abortedInstall  bool
	abortIncomplete bool
	reason          string
	// sc is the submit root's trace context; Await parents its span here
	// so the whole lifecycle shares one trace.
	sc trace.SpanContext
}

// Version returns the transaction's timestamp.
func (h *TxnHandle) Version() tstamp.Timestamp { return h.version }

// Installed reports the write-only phase outcome (acknowledgment option 1).
func (h *TxnHandle) Installed() (aborted bool, reason string) {
	return h.abortedInstall, h.reason
}

// AbortIncomplete reports whether the second-round rollback exhausted its
// retry budget on some partition; see TxnResult.AbortIncomplete.
func (h *TxnHandle) AbortIncomplete() bool { return h.abortIncomplete }

// Await blocks until the transaction's functors are fully computed and
// returns the commit/abort decision (acknowledgment option 2). Any functor
// of the transaction reflects the decision (§IV-A), so waiting on the first
// written key suffices.
func (h *TxnHandle) Await(ctx context.Context) (committed bool, reason string, err error) {
	if h.abortedInstall {
		return false, h.reason, nil
	}
	if len(h.writes) == 0 {
		return true, "", nil
	}
	ctx, span := h.s.tr.StartAt(ctx, h.sc, "txn.await")
	defer span.End()
	if err := h.s.waitVisible(ctx, h.version); err != nil {
		return false, "", err
	}
	k := h.writes[0].Key
	wait := MsgWaitComputed{Key: k, Version: h.version}
	var resp MsgWaitComputedResp
	if owner := h.s.owner(k); owner == h.s.id {
		resp, err = h.s.handleWaitComputed(ctx, wait)
	} else {
		var raw any
		raw, err = h.s.conn.Call(ctx, transport.NodeID(owner), wait)
		if err == nil {
			var ok bool
			if resp, ok = raw.(MsgWaitComputedResp); !ok {
				err = fmt.Errorf("core: await: unexpected response %T", raw)
			}
		}
	}
	if err != nil {
		return false, "", err
	}
	switch resp.Kind {
	case functor.ResolvedAborted:
		return false, resp.Reason, nil
	default:
		return true, "", nil
	}
}

// Get performs a latest-version read-only transaction under unified epochs
// (§III-B): it draws a timestamp in the current write epoch, waits for that
// epoch to commit, then reads the historical version at the timestamp.
func (s *Server) Get(ctx context.Context, key kv.Key) (kv.Value, bool, error) {
	ts, err := s.gen.Next()
	if err != nil {
		return nil, false, err
	}
	return s.getAtSnapshot(ctx, key, ts)
}

// GetAt reads key at an explicit snapshot. Snapshots in uncommitted epochs
// wait for visibility; historical snapshots are served immediately.
func (s *Server) GetAt(ctx context.Context, key kv.Key, snapshot tstamp.Timestamp) (kv.Value, bool, error) {
	return s.getAtSnapshot(ctx, key, snapshot)
}

// GetCommitted reads the latest already-committed version of key without
// waiting for the current epoch, trading the freshness of Get for immediate
// service (snapshot = end of the last committed epoch).
func (s *Server) GetCommitted(ctx context.Context, key kv.Key) (kv.Value, bool, error) {
	bound := s.visibleBound()
	if bound == tstamp.Zero {
		return nil, false, fmt.Errorf("core: cluster not started")
	}
	return s.getAtSnapshot(ctx, key, bound.Prev())
}

// Snapshot returns a timestamp in the current epoch, usable with GetAt to
// assemble multi-key serializable read-only transactions.
func (s *Server) Snapshot() (tstamp.Timestamp, error) { return s.gen.Next() }

// ReadMany reads several keys at one snapshot, forming a serializable
// read-only transaction.
func (s *Server) ReadMany(ctx context.Context, keys []kv.Key) (map[kv.Key]kv.Value, tstamp.Timestamp, error) {
	ts, err := s.gen.Next()
	if err != nil {
		return nil, tstamp.Zero, err
	}
	out := make(map[kv.Key]kv.Value, len(keys))
	for _, k := range keys {
		v, found, err := s.getAtSnapshot(ctx, k, ts)
		if err != nil {
			return nil, tstamp.Zero, err
		}
		if found {
			out[k] = v
		}
	}
	return out, ts, nil
}

func (s *Server) getAtSnapshot(ctx context.Context, key kv.Key, ts tstamp.Timestamp) (kv.Value, bool, error) {
	// Read-only transactions root their own trace: under unified epochs
	// they carry a write-epoch timestamp and can block in visibility.wait
	// just like writers (§III-B), which is exactly the stage worth seeing.
	ctx, root := s.tr.StartRoot(ctx, "txn.read")
	root.SetAttr("key", string(key))
	defer root.End()
	if err := s.waitVisible(ctx, ts); err != nil {
		return nil, false, err
	}
	// Remote keys route through s.read and thus the per-owner combiner, so
	// concurrent read-only transactions against one partition share RPCs.
	r, err := s.read(ctx, key, ts)
	if err != nil {
		return nil, false, err
	}
	return r.Value, r.Found, nil
}
