package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// funcRead aliases functor.Read locally for brevity.
type funcRead = functor.Read

// Shared immutable resolutions, allocated once.
var (
	_abortResolutionDeferred = functor.AbortResolution("aborted: determinate functor aborted")
	_skipResolutionShared    = functor.SkipResolution()
)

// The compute call graph threads a context end to end: it carries the
// transaction's trace across the recursive resolution chain (and across
// nodes, via transport), and its cancellation is the server's lifetime —
// callers entering from a remote handler re-root on engineCtx first.

// getLocal is Algorithm 1's Get for keys owned by this partition: return
// the value of the latest version of k not exceeding v, computing functors
// on demand, skipping aborted versions, and treating tombstones as absent.
func (s *Server) getLocal(ctx context.Context, k kv.Key, v tstamp.Timestamp) (funcRead, error) {
	c, row, ok := s.store.Read(k, v)
	if c == nil {
		// Never written, or one version that was born final: a row has no
		// lower version to fall through to.
		if ok && row.Kind == functor.Resolved {
			return funcRead{Value: row.Value, Found: true, Version: row.Version}, nil
		}
		return funcRead{}, nil
	}
	// One snapshot of both tiers: below the watermark the history is
	// frozen, final and read as bytes.
	h := c.History()
	for i := h.Search(v) - 1; i >= 0; i-- {
		kind, value := h.Outcome(i)
		if kind == 0 {
			rec := h.Record(i)
			if err := s.resolveRecord(ctx, k, c, rec); err != nil {
				return funcRead{}, err
			}
			kind, value, _ = rec.Outcome()
		}
		switch kind {
		case functor.Resolved:
			return funcRead{Value: value, Found: true, Version: h.Version(i)}, nil
		case functor.ResolvedDeleted:
			return funcRead{}, nil // ⊥: deleted key
		}
		// ABORTED or SKIPPED: fall through to the next lower version
		// (Algorithm 1, lines 22-23).
	}
	return funcRead{}, nil
}

// read returns the value of k at snapshot v, routing to the owning
// partition (local call, or a remote read through the per-owner combiner,
// which merges concurrent reads and ensures into one MsgFetch per owner).
func (s *Server) read(ctx context.Context, k kv.Key, v tstamp.Timestamp) (funcRead, error) {
	if owner := s.owner(k); owner != s.id {
		s.stats.remoteReads.Add(1)
		return s.comb.read(ctx, owner, k, v)
	}
	return s.localRead(ctx, k, v)
}

// localRead is the entry point for reads of locally-owned keys: it
// enforces the schema-level key-dependency rule (§IV-E) before running
// Algorithm 1's Get. Reads issued from inside functor computations also
// pass through here, so deferred writes are always settled before a
// dependent key's value is observed.
func (s *Server) localRead(ctx context.Context, k kv.Key, v tstamp.Timestamp) (funcRead, error) {
	// Hot-key profiling: disabled (nil) it costs nothing; enabled it is
	// one atomic add per access outside the sampling stride.
	s.skew.Observe(s.id, string(k))
	if s.depRule != nil {
		if det, ok := s.depRule(k); ok {
			if err := s.ensureUpTo(ctx, det, v); err != nil {
				return funcRead{}, err
			}
		}
	}
	return s.getLocal(ctx, k, v)
}

// ensureUpTo forces every functor of k at or below v to its final state —
// including synchronous distribution of deferred writes — and advances k's
// value watermark to v, locally or via a remote FetchUpTo.
func (s *Server) ensureUpTo(ctx context.Context, k kv.Key, v tstamp.Timestamp) error {
	if owner := s.owner(k); owner != s.id {
		return s.comb.ensureUpTo(ctx, owner, k, v)
	}
	return s.computeKeyUpTo(ctx, k, v)
}

// computeKeyUpTo resolves every record of k at or below v in ascending
// order and raises the value watermark to v (Algorithm 1's Compute).
func (s *Server) computeKeyUpTo(ctx context.Context, k kv.Key, v tstamp.Timestamp) error {
	// A key without a chain was never written or is one version born final:
	// nothing to compute, and no watermark worth creating the key for.
	c, _, _ := s.store.Read(k, v)
	if c == nil {
		return nil
	}
	w := c.Watermark()
	if w >= v {
		return nil
	}
	// As in resolveRecord: a forwarded ensure can land on a stale replica
	// after a second move — only the current owner may compute.
	if o := s.owner(k); o != s.id {
		return s.comb.ensureUpTo(ctx, o, k, v)
	}
	// Everything at or below the watermark is final; ascending from there,
	// so is everything below the record being computed.
	h := c.History()
	for idx := h.Search(w); idx < h.Len() && h.Version(idx) <= v; idx++ {
		if kind, _ := h.Outcome(idx); kind != 0 {
			continue
		}
		if err := s.computeOne(ctx, k, h, idx); err != nil {
			return err
		}
	}
	if err := s.awaitDeferred(ctx, c, w, v); err != nil {
		return err
	}
	c.AdvanceWatermark(v)
	s.payOwed(k, c)
	return nil
}

// awaitDeferred waits until no record of c in (lo, hi] is still
// distributing deferred writes. A record another computation resolved is
// final before its writes have landed, and a watermark raised past it
// would promise the dependency rule's readers writes still in flight
// (§IV-E). The wait is a computation's own round trips at most.
func (s *Server) awaitDeferred(ctx context.Context, c *mvstore.Chain, lo, hi tstamp.Timestamp) error {
	h := c.History()
	for i := h.Search(lo); i < h.Len() && h.Version(i) <= hi; i++ {
		for rec := h.Record(i); rec != nil && rec.Deferring(); {
			if err := ctx.Err(); err != nil {
				return err
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// resolveRecord drives rec to its final state, first resolving every
// unresolved lower version of the same key iteratively (self-key dependency
// chains can be as long as an epoch's writes to a hot key, so recursion is
// not an option). Cross-key dependencies recurse through getLocal/read,
// bounded by the workload's dependency depth; version numbers strictly
// decrease across such hops, so the recursion terminates.
func (s *Server) resolveRecord(ctx context.Context, k kv.Key, c *mvstore.Chain, rec *mvstore.Record) error {
	// The key may have migrated away while this record sat in the
	// processor queue (or a forwarded read raced a second move). The
	// current owner is the one replica allowed to *compute* it: resolving
	// here could diverge — e.g. a second-round abort delivered only to the
	// new owner would make this stale copy commit a value the rest of the
	// cluster aborted. Fetch the authoritative resolution instead, which
	// also lets the retirement pass find the chain fully final later.
	if o := s.owner(k); o != s.id {
		res, err := s.comb.ensure(ctx, o, k, rec.Version)
		if err != nil {
			return err
		}
		rec.Resolve(res)
		return nil
	}
	h := c.History()
	i := locate(h, rec)
	if i < 0 {
		// A final record at or below the watermark may have been frozen
		// (or handed out fresh from the frozen run): nothing is left to do.
		if rec.Final() && rec.Version <= c.Watermark() {
			return nil
		}
		// The snapshot raced with an insert of a lower version; rec must
		// still be present in a fresh view because records are never
		// removed while unresolved.
		h = c.History()
		if i = locate(h, rec); i < 0 {
			return fmt.Errorf("core: record %q@%v vanished", k, rec.Version)
		}
	}
	// Walk down to the nearest version a read would stop at, then compute
	// forward: everything a functor in between reads below itself is final
	// by the time it runs (readBelow).
	j := i - 1
	for j >= 0 && !readable(h, j) {
		j--
	}
	for idx := j + 1; idx <= i; idx++ {
		if kind, _ := h.Outcome(idx); kind != 0 {
			continue
		}
		if err := s.computeOne(ctx, k, h, idx); err != nil {
			return err
		}
	}
	if !rec.Final() {
		return fmt.Errorf("core: record %q@%v unresolved after compute", k, rec.Version)
	}
	return nil
}

// locate returns rec's index in h, or -1 when it is not one of h's records.
// A record being resolved was sealed by a recent commit, so the search
// gallops down from the tail and bisects only the stretch it stepped over.
func locate(h mvstore.History, rec *mvstore.Record) int {
	view := h.Records()
	hi := len(view)
	lo := hi - 1
	for step := 1; lo >= 0 && view[lo].Version > rec.Version; step *= 2 {
		hi = lo
		lo -= step
	}
	lo = max(lo, 0)
	i := lo + sort.Search(hi-lo, func(i int) bool { return view[lo+i].Version >= rec.Version })
	if i == len(view) || view[i] != rec {
		return -1
	}
	return h.Frozen() + i
}

// readable reports whether a read stops at the version at index i of h: a
// value, or a tombstone. ABORTED and SKIPPED versions are read through, and
// so is a record not yet resolved.
func readable(h mvstore.History, i int) bool {
	kind, _ := h.Outcome(i)
	return kind == functor.Resolved || kind == functor.ResolvedDeleted
}

// readBelow is a functor's read of its own key at the version before its
// own (Algorithm 1's Get, lines 16-23) without a second probe of the store:
// the functor is at index idx of h, and its callers have made every version
// between it and the nearest readable one below final.
func readBelow(h mvstore.History, idx int) funcRead {
	for j := idx - 1; j >= 0; j-- {
		switch kind, value := h.Outcome(j); kind {
		case functor.Resolved:
			return funcRead{Value: value, Found: true, Version: h.Version(j)}
		case functor.ResolvedDeleted:
			return funcRead{} // ⊥: deleted key
		}
	}
	return funcRead{}
}

// computeOne computes exactly one functor, the record at index idx of k's
// history, assuming every lower version of its key that a read would visit
// is already final (the paper's Func procedure, Algorithm 1 lines 10-15).
// Concurrent invocations are safe: resolve-once keeps one outcome per
// functor and identical inputs yield identical results.
func (s *Server) computeOne(ctx context.Context, k kv.Key, h mvstore.History, idx int) error {
	rec := h.Record(idx)
	fn := rec.Functor
	if fn.Type == functor.TypeUser {
		// A determinate functor's outcome is installed before its deferred
		// writes go out: whoever raises the watermark past it waits for
		// them (awaitDeferred).
		rec.BeginDeferred()
		defer rec.EndDeferred()
	}
	var (
		computeStart time.Time
		won          bool // this computation's Resolve installed the record's outcome
	)
	if !fn.Type.Final() {
		computeStart = time.Now()
		// Final f-types (VALUE/DELETE) resolve without computing; spans for
		// them would be pure noise, so only real computations trace.
		var span *trace.Span
		ctx, span = s.tr.Start(ctx, "functor.compute")
		span.SetAttr("key", string(k))
		defer span.End()
	}
	switch {
	case fn.Type.Final():
		rec.ResolveValue(mvstore.FinalOutcome(fn))

	case fn.Type.Arithmetic():
		// The value goes straight into the record: no Resolution to carry it.
		v, err := functor.Arithmetic(fn.Type, fn.Arg, readBelow(h, idx))
		if err != nil {
			// A malformed argument is a logic error: the transaction
			// aborts, which ECC permits (unlike deterministic systems).
			rec.Resolve(functor.AbortResolution(err.Error()))
			break
		}
		rec.ResolveValue(functor.Resolved, v)

	case fn.Type == functor.TypeDepMarker:
		det := fn.DeterminateKey()
		detRes, err := s.ensureComputed(ctx, det, rec.Version)
		if err != nil {
			return err
		}
		resolveMarker(rec, detRes, k)

	case fn.Type == functor.TypeUser:
		res, err := s.computeUser(ctx, k, rec, readBelow(h, idx))
		if err != nil {
			return err
		}
		won = rec.Resolve(res)

	default:
		rec.Resolve(functor.AbortResolution(fmt.Sprintf("unknown f-type %d", fn.Type)))
	}
	s.stats.functorsComputed.Add(1)
	if !computeStart.IsZero() {
		// Figure-10 "processing" stage: the Func procedure's run time,
		// including its historical reads (leaf computations only; nested
		// chain resolution is accounted to its own records).
		s.stats.recordCompute(time.Since(computeStart))
	}
	// Distribute deferred writes for determinate functors, synchronously:
	// the caller may advance this key's watermark next, which per §IV-E
	// promises readers of the dependent keys that all deferred writes have
	// been applied. The outcome installed may be that of a concurrent
	// computation that won the record; use the installed one (a losing
	// Resolve returns once it is readable) so all partitions agree.
	// The winner marks its writes landed once every owner has applied them,
	// before its EndDeferred: from then on the dependent keys' rows hold
	// them, and frozen, the version is its value alone. A delivery that
	// failed, or that reached a replica being handed off, leaves the mark
	// off, so the version keeps its writes.
	kind, _, ext := rec.Outcome()
	var writes []functor.DependentWrite
	if ext != nil {
		writes = ext.DependentWrites
	}
	landed := true
	if len(fn.DependentKeys) > 0 || len(writes) > 0 {
		landed = s.distributeDeferred(ctx, fn, rec.Version, kind == functor.ResolvedAborted, writes)
	}
	switch {
	case !landed:
		s.stats.deferredUnlanded.Add(1)
	case won && len(writes) > 0:
		rec.Land()
	}
	s.notifyComputed()
	return nil
}

// userCall is the frame of one user-handler call: the Context the handler
// is passed and the read-set map inside it. One frame per computed functor
// was the engine's hottest allocation, and the Handler contract (the Context,
// its Reads map included, is valid only for the duration of the call) makes
// reuse safe.
type userCall struct {
	ctx   functor.Context
	reads map[kv.Key]funcRead
}

var userCallPool = sync.Pool{
	New: func() any { return &userCall{reads: make(map[kv.Key]funcRead, 8)} },
}

// computeUser gathers the read set and invokes the user handler; self is
// the functor's own key at the previous version.
func (s *Server) computeUser(ctx context.Context, k kv.Key, rec *mvstore.Record, self funcRead) (*functor.Resolution, error) {
	fn := rec.Functor
	handler, ok := s.registry.Lookup(fn.Handler)
	if !ok {
		return functor.AbortResolution(fmt.Sprintf("unknown handler %q", fn.Handler)), nil
	}
	call := userCallPool.Get().(*userCall)
	// Implicit self-read: the functor's own key at the previous version is
	// always available to the handler (paper §IV-B: "the read set of some
	// functors comprises only the key to which the functor was written, in
	// which case the read set is omitted").
	call.reads[k] = self
	var res *functor.Resolution
	err := s.gatherReads(ctx, k, rec, call.reads)
	if err == nil {
		call.ctx = functor.Context{Key: k, Version: rec.Version, Arg: fn.Arg, Reads: call.reads}
		var herr error
		if res, herr = handler(&call.ctx); herr != nil {
			res = functor.AbortResolution(herr.Error())
		} else if res == nil {
			res = functor.AbortResolution(fmt.Sprintf("handler %q returned no resolution", fn.Handler))
		}
	}
	clear(call.reads)
	call.ctx = functor.Context{}
	userCallPool.Put(call)
	return res, err
}

// gatherReads fills reads with the value of every other key in the functor's
// read set at the version before its own.
func (s *Server) gatherReads(ctx context.Context, k kv.Key, rec *mvstore.Record, reads map[kv.Key]funcRead) error {
	// Resolve pushed and local keys inline; remote keys fetch in parallel
	// so a functor's computation costs one network round trip regardless
	// of read-set size (critical under scaled TPC-C, where a NewOrder's
	// item reads span many partitions, §V-B3).
	var remote []kv.Key
	for _, rk := range rec.Functor.ReadSet {
		if rk == k {
			continue
		}
		// Proactively pushed values avoid the remote read (§IV-B).
		if pushed, hit := s.takePushed(rec.Version, rk); hit {
			s.stats.pushHits.Add(1)
			reads[rk] = pushed
			continue
		}
		if s.owner(rk) == s.id {
			r, err := s.localRead(ctx, rk, rec.Version.Prev())
			if err != nil {
				return err
			}
			reads[rk] = r
			continue
		}
		remote = append(remote, rk)
	}
	switch len(remote) {
	case 0:
	case 1:
		r, err := s.read(ctx, remote[0], rec.Version.Prev())
		if err != nil {
			return err
		}
		reads[remote[0]] = r
	default:
		type fetched struct {
			key kv.Key
			r   funcRead
			err error
		}
		results := make(chan fetched, len(remote))
		var err error
		for _, rk := range remote {
			go func(rk kv.Key) {
				r, err := s.read(ctx, rk, rec.Version.Prev())
				results <- fetched{key: rk, r: r, err: err}
			}(rk)
		}
		for range remote {
			f := <-results
			if f.err != nil {
				err = f.err
				continue
			}
			reads[f.key] = f.r
		}
		return err
	}
	return nil
}

// ensureComputed forces the functor at (k, version) — a determinate key —
// to its final state and returns its resolution, locally or via a remote
// FetchEnsure.
func (s *Server) ensureComputed(ctx context.Context, k kv.Key, version tstamp.Timestamp) (*functor.Resolution, error) {
	if owner := s.owner(k); owner != s.id {
		return s.comb.ensure(ctx, owner, k, version)
	}
	return s.ensureLocal(ctx, k, version)
}

// ensureLocal resolves the record of locally-owned k at exactly version.
func (s *Server) ensureLocal(ctx context.Context, k kv.Key, version tstamp.Timestamp) (*functor.Resolution, error) {
	c := s.store.Chain(k)
	var rec *mvstore.Record
	if c != nil {
		rec = c.At(version)
	}
	if rec == nil {
		return nil, fmt.Errorf("core: server %d: determinate functor %q@%v not found", s.id, k, version)
	}
	// A frozen version comes back from At as a fresh final record, reason
	// and dependent writes included, which resolveRecord leaves as it is.
	if err := s.resolveRecord(ctx, k, c, rec); err != nil {
		return nil, err
	}
	return rec.Resolution(), nil
}

// resolveMarker gives a dependent-key marker the outcome its determinate
// functor's resolution implies: the deferred write's value if present,
// ABORTED if the transaction aborted, SKIPPED otherwise.
func resolveMarker(rec *mvstore.Record, det *functor.Resolution, marker kv.Key) {
	if det.Kind == functor.ResolvedAborted {
		rec.Resolve(_abortResolutionDeferred)
		return
	}
	for _, w := range det.DependentWrites {
		if w.Key == marker {
			rec.ResolveValue(deferredOutcome(w))
			return
		}
	}
	rec.Resolve(_skipResolutionShared)
}

// deferredOutcome is the plain outcome one deferred write gives its key's
// version.
func deferredOutcome(w functor.DependentWrite) (functor.ResolutionKind, kv.Value) {
	if w.Delete {
		return functor.ResolvedDeleted, nil
	}
	return functor.Resolved, w.Value
}

// distributeDeferred pushes a computed determinate functor's deferred
// writes (and marker dissolutions) to the partitions owning its dependent
// keys. Two flavours coexist (§IV-E): statically declared dependent keys
// (markers were installed in the write-only phase and must be resolved or
// dissolved) and dynamically named dependent keys (e.g. TPC-C order rows
// keyed by the freshly allocated order id; their records are created on
// application and guarded by the schema-level DependencyRule).
//
// Distribution is synchronous: the determinate key's watermark only
// advances after this returns, which is exactly the promise the
// DependencyRule relies on. All applications are idempotent resolve-once
// installs. It reports whether the writes landed: every owner's apply
// returned, none of them failed a forward, and none applied a write to a
// replica being handed off (strandedKey).
func (s *Server) distributeDeferred(ctx context.Context, fn *functor.Functor, version tstamp.Timestamp, aborted bool, writes []functor.DependentWrite) bool {
	ctx, span := s.tr.Start(ctx, "deferred.apply")
	defer span.End()
	// A determinate functor touches a handful of owners and a dozen-odd
	// dependent keys; small slices with linear scans beat per-computation
	// map allocations on this hot path.
	type ownerMsg struct {
		owner int
		msg   *MsgApplyDeferred
	}
	var byOwner []ownerMsg
	msgFor := func(owner int) *MsgApplyDeferred {
		for i := range byOwner {
			if byOwner[i].owner == owner {
				return byOwner[i].msg
			}
		}
		m := &MsgApplyDeferred{Version: version, Aborted: aborted}
		byOwner = append(byOwner, ownerMsg{owner: owner, msg: m})
		return m
	}
	if aborted {
		writes = nil
	}
	local := len(writes) > 0
	for i := range writes {
		if s.owner(writes[i].Key) != s.id {
			local = false
			break
		}
	}
	if local {
		// Rows keyed by what the functor just computed (TPC-C's order rows)
		// live with it: the outcome's own slice is the message, read-only
		// from here on.
		msgFor(s.id).Writes = writes
	} else {
		for _, w := range writes {
			m := msgFor(s.owner(w.Key))
			if m.Writes == nil {
				m.Writes = make([]functor.DependentWrite, 0, len(writes))
			}
			m.Writes = append(m.Writes, w)
		}
	}
	for _, dk := range fn.DependentKeys {
		written := false
		for i := range writes {
			if writes[i].Key == dk {
				written = true
				break
			}
		}
		if written {
			continue
		}
		m := msgFor(s.owner(dk))
		m.Dissolve = append(m.Dissolve, dk)
	}
	landed := true
	for _, om := range byOwner {
		owner, m := om.owner, om.msg
		if owner == s.id {
			// Routed a moment ago: apply as is, without the receiving
			// side's ownership split; a key a move took meanwhile still
			// reports the writes unlanded.
			m.Fwd = true
			if s.handleApplyDeferred(ctx, *m) != nil {
				landed = false
			}
			continue
		}
		if _, err := s.conn.Call(ctx, transport.NodeID(owner), *m); err != nil {
			// The partition is unreachable (shutdown or crash), could not
			// forward a write whose key had moved on, or applied one to a
			// replica a move is handing off. The writes did not
			// land, so the version keeps them, frozen too: readers of
			// statically-declared markers resolve on demand through a remote
			// ensure of it; dynamically-named rows are re-created when the
			// dependency rule re-forces this computation after recovery.
			landed = false
		}
	}
	return landed
}
