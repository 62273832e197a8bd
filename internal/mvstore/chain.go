package mvstore

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// Chain holds the versions of a single key — the paper's Figure 4 "linked
// list of arrays", with both of its categories in one array, behind the
// frozen run of the history below the watermark (frozen.go):
//
//	run:  [ frozen: final, at or below the watermark, bytes ]
//	recs: [ sealed, sorted, immutable ....... | staged, unsorted ... | free ]
//	       0                                  n                      n+staged
//
// Out-epoch records, those of committed epochs, are recs[:n], ascending by
// version and above every frozen version. Readers load the block pointer,
// and with it the run and its n atomically, and read both without locks
// (History); a published slot or run byte is never written again.
//
// In-epoch records, those of epochs still being written, are
// recs[n:n+staged] in arrival order (decentralized timestamps interleave
// across servers, so arrivals are only nearly sorted). They are guarded by
// mu and invisible to readers.
//
// Seal sorts the staged region in place and publishes the part below the
// epoch boundary by raising n: no copy and no allocation unless a straggler
// sorts below a record sealed earlier. A full array is replaced by one of
// twice the size; readers of the old block keep a consistent prefix.
//
// A chain embeds its first record, a one-slot array for it and that array's
// block, so a key written once costs a single object (128 bytes with the
// record's inline outcome). Records never move: the arrays hold pointers,
// and resolve-once, the processor queue and second-round aborts all address
// a record by the pointer Put returned.
type Chain struct {
	mu  sync.Mutex // guards staged, the staged region of cur, and block replacement
	cur atomic.Pointer[block]
	// staged counts the in-epoch records after cur's sealed prefix.
	staged int32
	// owed is the epoch of the horizon of a Compact that the watermark cut
	// short (zero: none); it shares staged's word so that a key written once
	// stays in the 128-byte size class.
	owed atomic.Uint32
	// watermark is the value watermark: every version at or below it is a
	// final value (paper §III-D). Monotonically non-decreasing.
	watermark atomic.Uint64

	first Record
	slot  [1]*Record
	blk   block
}

// block is one array of a chain. recs never changes after the block is
// published; n only grows. A block that carries a frozen run is the head of
// a frozenBlock: the chain's embedded block, whose chain has one version,
// never does, so a key written once stays in its size class.
type block struct {
	n      atomic.Int32
	frozen bool
	recs   []*Record
}

// frozenBlock publishes a record array and the run it follows together. A
// frozen chain's records are mostly its newest version and what is staged
// behind it, so the block has room for two inline.
type frozenBlock struct {
	block
	run   run
	slots [2]*Record
}

// run returns the frozen run published with b.
func (b *block) run() run {
	if !b.frozen {
		return run{}
	}
	return (*frozenBlock)(unsafe.Pointer(b)).run
}

// View returns the current immutable snapshot of the sealed (out-epoch)
// records, sorted ascending by version: the key's history above its frozen
// run, which always ends with the newest sealed version. Callers must not
// mutate it.
func (c *Chain) View() []*Record {
	b := c.cur.Load()
	if b == nil {
		return nil
	}
	n := b.n.Load()
	return b.recs[:n:n]
}

// Watermark returns the key's value watermark.
func (c *Chain) Watermark() tstamp.Timestamp {
	return tstamp.Timestamp(c.watermark.Load())
}

// AdvanceWatermark raises the watermark to at least v (Algorithm 1,
// lines 7-9). Raising past versions that are not final is a caller error
// that the engine prevents by computing in ascending version order.
func (c *Chain) AdvanceWatermark(v tstamp.Timestamp) {
	for {
		w := c.watermark.Load()
		if w >= uint64(v) {
			return
		}
		if c.watermark.CompareAndSwap(w, uint64(v)) {
			return
		}
	}
}

// put stages fn as a new in-epoch version (paper Figure 4). The record
// stays invisible to reads until Seal publishes it when its epoch commits.
// A duplicate version returns the existing record and ErrVersionExists.
// Store.Stage is its caller: a chain is written only under its shard's lock.
func (c *Chain) put(version tstamp.Timestamp, fn *functor.Functor) (*Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec := c.at(version); rec != nil {
		return rec, ErrVersionExists
	}
	return c.stage(version, fn), nil
}

// putResolved installs a version whose plain outcome is already known — a
// deferred write, a bulk-loaded or checkpointed final value — resolved and
// sealed in one step, the outcome written straight into the record, which
// points at the shared placeholder of its f-type; it publishes every staged
// record at or below version with it. When the version exists (a marker
// installed in the write-only phase, a duplicate delivery) that record takes
// the outcome through resolve-once, stays where it is, and comes back with
// false. Store.PutFinal and shard.thaw are its callers: a key that has no
// chain yet does not need one for this.
func (c *Chain) putResolved(version tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value) (*Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.at(version)
	fresh := rec == nil
	if fresh {
		rec = c.stage(version, finalPlaceholder(kind))
	}
	rec.ResolveValue(kind, value)
	if fresh {
		c.seal(version + 1)
	}
	return rec, fresh
}

// plain says whether kind is a value or a tombstone: an outcome a read
// stops at and a row holds.
func plain(kind functor.ResolutionKind) bool {
	return kind == functor.Resolved || kind == functor.ResolvedDeleted
}

// settled returns the chain's current block and how many versions it holds
// when its history is settled: every version final and at or below the
// watermark — the newest sealed one is, so all below it are — and no
// compaction owed. Otherwise n is zero. A frozen run is always followed by
// at least one sealed record. Whether anything is staged is for a caller
// holding c.mu to check.
func (c *Chain) settled() (b *block, n int) {
	b = c.cur.Load()
	if b == nil || c.owed.Load() != 0 {
		return nil, 0
	}
	sealed := int(b.n.Load())
	if sealed == 0 {
		return nil, 0
	}
	if rec := b.recs[sealed-1]; !rec.Final() || rec.Version > c.Watermark() {
		return nil, 0
	}
	return b, b.run().len() + sealed
}

// stage appends a record to the staged region, growing the array when it is
// full. Callers hold c.mu and have ruled out a duplicate.
func (c *Chain) stage(version tstamp.Timestamp, fn *functor.Functor) *Record {
	b := c.cur.Load()
	var rec *Record
	if b == nil {
		rec = &c.first
		c.blk.recs = c.slot[:]
		b = &c.blk
		c.cur.Store(b)
	} else {
		rec = new(Record)
	}
	rec.Version, rec.Functor = version, fn
	n := int(b.n.Load())
	live := n + int(c.staged)
	if live == len(b.recs) {
		b = c.replace(b.recs[:live], n, b.run())
	}
	b.recs[live] = rec
	c.staged++
	return rec
}

// newBlock returns an unpublished block with room for size records that
// carries r.
func newBlock(size int, r run) *block {
	if r.len() == 0 {
		return &block{recs: make([]*Record, size)}
	}
	fb := &frozenBlock{run: r}
	fb.frozen = true
	if size <= len(fb.slots) {
		fb.recs = fb.slots[:size]
	} else {
		fb.recs = make([]*Record, size)
	}
	return &fb.block
}

// replace publishes a fresh block with room for twice live, holding live (n
// sealed records, then the staged ones) behind the run r, and returns it.
// Callers hold c.mu.
func (c *Chain) replace(live []*Record, n int, r run) *block {
	b := newBlock(2*max(len(live), 1), r)
	copy(b.recs, live)
	b.n.Store(int32(n))
	c.cur.Store(b)
	return b
}

// Seal makes the staged records with versions strictly below bound
// readable and returns how many it published. The backend seals every key
// an epoch touched when the epoch commits; of several seals of one key in
// one epoch only the first publishes anything.
func (c *Chain) Seal(bound tstamp.Timestamp) int {
	c.mu.Lock()
	k := c.seal(bound)
	c.mu.Unlock()
	return k
}

func (c *Chain) seal(bound tstamp.Timestamp) int {
	if c.staged == 0 {
		return 0
	}
	b := c.cur.Load()
	n := int(b.n.Load())
	staged := b.recs[n : n+int(c.staged)]
	if len(staged) > 1 {
		slices.SortFunc(staged, func(x, y *Record) int { return cmp.Compare(x.Version, y.Version) })
	}
	// Sorted, the records below the bound are a prefix; stragglers from
	// still-open epochs stay staged behind them.
	k := sort.Search(len(staged), func(i int) bool { return staged[i].Version >= bound })
	if k == 0 {
		return 0
	}
	c.staged -= int32(k)
	if n == 0 || b.recs[n-1].Version < staged[0].Version {
		// Committed epochs only grow the high end of the version space:
		// the sorted prefix already sits where it belongs.
		b.n.Store(int32(n + k))
		return k
	}
	// A straggler sealed late sorts below a record sealed earlier. Slots
	// readers may be scanning cannot be rewritten, so merge into a fresh
	// block. One that sorts below frozen history (the engine raises no
	// watermark over an open epoch, so none does there) takes the run back
	// into records to merge with.
	r, sealed := b.run(), b.recs[:n]
	if r.len() > 0 && staged[0].Version < r.newest() {
		r, sealed = run{}, append(r.records(), sealed...)
		n = len(sealed)
	}
	nb := newBlock(2*(n+len(staged)), r)
	i, j, w := 0, 0, 0
	for ; i < n && j < k; w++ {
		if sealed[i].Version < staged[j].Version {
			nb.recs[w] = sealed[i]
			i++
		} else {
			nb.recs[w] = staged[j]
			j++
		}
	}
	w += copy(nb.recs[w:], sealed[i:n])
	copy(nb.recs[w:], staged[j:])
	nb.n.Store(int32(n + k))
	c.cur.Store(nb)
	return k
}

// Latest returns the newest sealed record with Version <= max, or nil; a
// fresh final one when that version is frozen. Staged (in-epoch) records
// are invisible by design: reads only ever run at snapshots whose epochs
// have committed and sealed.
func (c *Chain) Latest(max tstamp.Timestamp) *Record {
	h := c.History()
	i := h.Search(max)
	if i == 0 {
		return nil
	}
	return h.materialize(i - 1)
}

// At returns the record with exactly the given version, sealed or staged,
// or nil; a fresh final one when the version is frozen. The second-round
// abort and deferred-write paths address records by version before their
// epoch commits.
func (c *Chain) At(v tstamp.Timestamp) *Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at(v)
}

// at is At for callers holding c.mu.
func (c *Chain) at(v tstamp.Timestamp) *Record {
	b := c.cur.Load()
	if b == nil {
		return nil
	}
	n := int(b.n.Load())
	// An install's version is above every sealed one unless it is a
	// straggler: compare with the newest sealed record before searching.
	if n > 0 && v <= b.recs[n-1].Version {
		i := sort.Search(n, func(i int) bool { return b.recs[i].Version >= v })
		if b.recs[i].Version == v {
			return b.recs[i]
		}
		if r := b.run(); i == 0 && r.len() > 0 {
			if j := r.search(v) - 1; j >= 0 && r.version(j) == v {
				return r.record(j)
			}
		}
	}
	for _, r := range b.recs[n : n+int(c.staged)] {
		if r.Version == v {
			return r
		}
	}
	return nil
}

// Compact drops sealed versions strictly below bound, frozen or records,
// keeping the newest *visible* such version so reads at old-but-live
// snapshots still resolve. Aborted and skipped versions are invisible to
// reads — collapsing the history onto one of them would erase the key's
// latest surviving value, turning a fully committed key into not-found —
// so the retained version is the newest below bound whose outcome a read
// would return (any aborted versions above it inside the bound are retained
// with it). When everything below bound is invisible the whole prefix is
// dropped: reads there found nothing before and still find nothing. Only
// final versions may be dropped. Returns the number of versions removed. A
// cut inside the frozen run drops a prefix of the run and leaves the records
// as they are.
//
// A chain with a version above its watermark, sealed or staged, is cut
// short there and keeps the epoch of its bound (see Owed), so whoever
// advances the watermark later can finish it; one without holds only final
// versions, as a history does, and owes nothing. Retention's bounds are
// horizons, each the start of an epoch; any other bound is finished up to
// the start of its epoch only.
func (c *Chain) Compact(bound tstamp.Timestamp) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.cur.Load()
	if b == nil {
		return 0
	}
	n := int(b.n.Load())
	// Stamp first, read the watermark second: a compute that raises the
	// watermark after this read finds the stamp and compacts again, one
	// that raised it before is seen here.
	c.owed.Store(uint32(bound.Epoch()))
	w := tstamp.Timestamp(c.watermark.Load())
	if behind := c.staged > 0 || n > 0 && b.recs[n-1].Version > w; behind && bound > w {
		bound = w
	} else {
		c.owed.Store(0)
	}
	if bound == 0 {
		return 0
	}
	h := History{run: b.run(), recs: b.recs[:n]}
	keepFrom := h.keepFrom(bound)
	if keepFrom == 0 {
		return 0
	}
	// Readers may hold the old block, so the survivors are published in a
	// fresh one (staged records ride along).
	if f := h.Frozen(); keepFrom < f {
		nb := &frozenBlock{block: block{frozen: true, recs: b.recs}, run: h.run.drop(keepFrom)}
		nb.n.Store(int32(n))
		c.cur.Store(&nb.block)
	} else {
		c.replace(b.recs[keepFrom-f:n+int(c.staged)], n-(keepFrom-f), run{})
	}
	return keepFrom
}

// keepFrom returns the index of the oldest version a compaction at bound
// keeps: the newest visible version below bound, or the first at or above
// it when none below is visible.
func (h History) keepFrom(bound tstamp.Timestamp) int {
	i := h.Search(bound - 1)
	for j := i - 1; j >= 0; j-- {
		kind, _ := h.Outcome(j)
		// An unresolved record below the watermark is a lazily-resolved
		// final functor (VALUE/DELETED placeholders resolve on first read);
		// treat it as visible.
		if kind == 0 || plain(kind) {
			return j
		}
	}
	return max(i, 0) // if no version below bound is visible, drop them all
}

// Owed returns the horizon of the last Compact that stopped at the
// watermark, or zero when the chain owes nothing. A chain is compacted where
// its epoch retires and, if it owes then, again where its watermark moves.
func (c *Chain) Owed() tstamp.Timestamp {
	return tstamp.Start(tstamp.Epoch(c.owed.Load()))
}
