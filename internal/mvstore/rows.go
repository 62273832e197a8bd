package mvstore

import (
	"encoding/binary"
	"unsafe"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// Every key of a store shard has one entry in the shard's row log, and the
// log's index is the only way to find a key. An entry is a row, or the name
// of a history or of a chain:
//
//	word u64 | flags u8 | klen u16 | vlen u16 | key | value
//
// A row is the whole history of a key whose only version is final — a
// bulk-loaded or checkpointed value, a deferred write, or a computed version
// folded back (see Store.Fold). Below a key's watermark every version is
// immutable and read without synchronization (paper §III-D): such a version
// needs no record to resolve, no array to grow and no mutex, so it is not a
// heap object at all. Its word is its version, and its value follows the key.
//
// A history is the whole history of a settled key that a row cannot hold —
// more than one version, an outcome with a reason or dependent writes, a
// value over the row cap: every version final and at or below the
// watermark, nothing staged. It is a frozen run (frozen.go), one
// pointer-free buffer, and its entry's word is the run's number in the
// shard's histories. It lives in a buffer of its own, not in these slabs: a
// key written again appends to its history at the next fold, and the slabs
// are never reclaimed, so every fold would leave the last copy behind.
//
// Any other key has a chain, and its entry's word is the chain's number in
// the shard's chains. A chain thawed from a row keeps the row's entry: thaw
// rewrites word and flags in place, and the record it builds reads its value
// where the row left it; a history's entry is rewritten the same way, both
// ways. A key longer than 65 535 bytes is over the row cap and never a row;
// its entry spends both length fields on the key.
//
// The index is open addressing over 8-byte slots. Neither the slabs nor the
// index hold a pointer, so the collector never looks inside them: 200 k rows
// are a few hundred objects where 200 k chains are 600 k.
//
// A key moves between the tiers always under the shard's write lock: a row
// or a history becomes a chain when something needs to write it or needs a
// *Chain of it (shard.thaw), a chain whose history has settled becomes a row
// or a history again (Store.Fold), and a history compacted to one version a
// row holds becomes that row (Store.CompactKey). Key and value bytes never
// change once written — readers keep the ones they were handed without
// holding a lock — and the header only under the write lock.
const (
	_rowHeader = 13
	// _maxRow is the most key and value bytes a row holds; a larger
	// final version stays a chain.
	_maxRow = 16 << 10

	// Slabs start at 4 KB and double to 1 MB; a slot names one in 16 bits.
	_minSlab       = 4 << 10
	_slabDoublings = 8
	_maxSlabs      = 1 << 16

	_rowKindMask = 0x07
	// _entryHistory: the word is a history number, not a version.
	_entryHistory = 0x08
	// _entryLongKey: klen and vlen are one u32 key length; there is no value.
	_entryLongKey = 0x10
	// _entryChain: the word is a chain number, not a version.
	_entryChain = 0x20
	// _rowSettled: nothing older than the row can arrive (a load, a
	// checkpoint, a fold), so the key's watermark stands at the row's version.
	_rowSettled = 0x40
	// _rowDead: dropped, or left behind by a fold; the index no longer
	// points here.
	_rowDead = 0x80

	_slotEmpty = 0
	_slotTomb  = 1
)

// rowLog is one shard's entries, guarded by the shard's mutex.
type rowLog struct {
	// slabs are append-only and never reallocated: 4 KB doubling to 1 MB.
	slabs [][]byte
	// index is a power-of-two table of slots, tag<<48 | slab<<32 | offset,
	// probed linearly from the key's mixed hash. Tags are never zero, so no
	// slot reads as empty or as a tombstone.
	index []uint64
	live  int // entries the index points at, rows and chains
	used  int // slots not empty: live entries and tombstones
}

// mix finishes kv.Hash for the index: the shard was chosen by the hash's low
// bits, which are therefore the same for every key of a shard.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func slotTag(m uint64) uint64 {
	if tag := m >> 48; tag != 0 {
		return tag
	}
	return 1
}

func (l *rowLog) row(slot uint64) []byte {
	return l.slabs[slot>>32&0xffff][uint32(slot):]
}

func entryWord(e []byte) uint64 { return binary.LittleEndian.Uint64(e) }

func isChain(e []byte) bool { return e[8]&_entryChain != 0 }

func isHistory(e []byte) bool { return e[8]&_entryHistory != 0 }

// isRow says whether the entry is a row: neither a chain's nor a history's.
func isRow(e []byte) bool { return e[8]&(_entryChain|_entryHistory) == 0 }

// rename makes the entry name number num of the kind flag says, keeping
// how its lengths are laid out. Callers hold the shard's write lock.
func rename(e []byte, num uint64, flag byte) {
	binary.LittleEndian.PutUint64(e, num)
	e[8] = flag | e[8]&_entryLongKey
}

func rowVersion(row []byte) tstamp.Timestamp { return tstamp.Timestamp(entryWord(row)) }

func rowKind(row []byte) functor.ResolutionKind {
	return functor.ResolutionKind(row[8] & _rowKindMask)
}

func rowFlags(kind functor.ResolutionKind, settled bool) byte {
	if settled {
		return byte(kind) | _rowSettled
	}
	return byte(kind)
}

// rowWatermark is the watermark the key's chain would have.
func rowWatermark(row []byte) tstamp.Timestamp {
	if row[8]&_rowSettled != 0 {
		return rowVersion(row)
	}
	return 0
}

func rowLens(e []byte) (klen, vlen int) {
	if e[8]&_entryLongKey != 0 {
		return int(binary.LittleEndian.Uint32(e[9:])), 0
	}
	return int(binary.LittleEndian.Uint16(e[9:])), int(binary.LittleEndian.Uint16(e[11:]))
}

// rowKey returns the entry's key aliasing the slab, which is never rewritten.
func rowKey(e []byte) kv.Key {
	klen, _ := rowLens(e)
	return kv.Key(unsafe.String(unsafe.SliceData(e[_rowHeader:]), klen))
}

// rowValue returns the row's value aliasing the slab, capped so that an
// append through it cannot reach the next entry. An empty value is nil.
func rowValue(row []byte) kv.Value {
	klen, vlen := rowLens(row)
	if vlen == 0 {
		return nil
	}
	at := _rowHeader + klen
	return row[at : at+vlen : at+vlen]
}

func rowOf(row []byte) Row {
	return Row{Version: rowVersion(row), Kind: rowKind(row), Value: rowValue(row)}
}

// find returns k's index position and entry, or -1. m is mix(kv.Hash(k)).
func (l *rowLog) find(k kv.Key, m uint64) (int, []byte) {
	if l.live == 0 {
		return -1, nil
	}
	mask, tag := uint64(len(l.index)-1), slotTag(m)
	// The table is never more than three quarters full: the probe ends.
	for i := m & mask; ; i = (i + 1) & mask {
		slot := l.index[i]
		if slot == _slotEmpty {
			return -1, nil
		}
		if slot>>48 != tag {
			continue
		}
		if e := l.row(slot); rowKey(e) == k {
			return int(i), e
		}
	}
}

// put appends an entry for k, which the caller has found to have none, and
// indexes it; key and value are copied. It reports false when the log has
// run out of slab numbers.
func (l *rowLog) put(k kv.Key, m, word uint64, flags byte, value kv.Value) bool {
	slot, ok := l.append(k, m, word, flags, value)
	if !ok {
		return false
	}
	if (l.used+1)*4 > len(l.index)*3 {
		l.rehash()
	}
	l.insert(m, slot)
	return true
}

// append writes an entry to the newest slab, or a new one, and returns the
// slot that names it without indexing it. A key too long for klen must come
// without a value: only a chain's entry has such a key.
func (l *rowLog) append(k kv.Key, m, word uint64, flags byte, value kv.Value) (uint64, bool) {
	size := _rowHeader + len(k) + len(value)
	last := len(l.slabs) - 1
	if last < 0 || cap(l.slabs[last])-len(l.slabs[last]) < size {
		if len(l.slabs) == _maxSlabs {
			return 0, false
		}
		l.slabs = append(l.slabs, make([]byte, 0, max(_minSlab<<min(len(l.slabs), _slabDoublings), size)))
		last++
	}
	slab := l.slabs[last]
	off := len(slab)
	slab = binary.LittleEndian.AppendUint64(slab, word)
	if len(k) > 0xffff {
		slab = append(slab, flags|_entryLongKey)
		slab = binary.LittleEndian.AppendUint32(slab, uint32(len(k)))
	} else {
		slab = append(slab, flags)
		slab = binary.LittleEndian.AppendUint16(slab, uint16(len(k)))
		slab = binary.LittleEndian.AppendUint16(slab, uint16(len(value)))
	}
	slab = append(slab, k...)
	l.slabs[last] = append(slab, value...)
	return slotTag(m)<<48 | uint64(last)<<32 | uint64(off), true
}

// insert files slot at the first free position of m's probe sequence.
func (l *rowLog) insert(m, slot uint64) {
	mask := uint64(len(l.index) - 1)
	i := m & mask
	for l.index[i] > _slotTomb {
		i = (i + 1) & mask
	}
	if l.index[i] == _slotEmpty {
		l.used++
	}
	l.index[i] = slot
	l.live++
}

// rehash rebuilds the index without its tombstones, at twice the size when
// the live entries alone would fill half of it. It rehashes every entry's
// key: O(keys of the shard) under the shard lock.
func (l *rowLog) rehash() {
	size := max(len(l.index), 16)
	for (l.live+1)*2 > size {
		size *= 2
	}
	old := l.index
	l.index, l.live, l.used = make([]uint64, size), 0, 0
	for _, slot := range old {
		if slot > _slotTomb {
			l.insert(mix(kv.Hash(rowKey(l.row(slot)))), slot)
		}
	}
}

// remove forgets the entry at index position pos. Its bytes stay where they
// are: a thawed record's value may live on in them.
func (l *rowLog) remove(pos int, e []byte) {
	l.index[pos] = _slotTomb
	e[8] |= _rowDead
	l.live--
}

// each calls fn for every live entry in the order they were written.
func (l *rowLog) each(fn func(e []byte)) {
	for _, slab := range l.slabs {
		for off := 0; off < len(slab); {
			e := slab[off:]
			klen, vlen := rowLens(e)
			if e[8]&_rowDead == 0 {
				fn(e)
			}
			off += _rowHeader + klen + vlen
		}
	}
}

// bytes is what the slabs hold, dead entries included.
func (l *rowLog) bytes() int {
	n := 0
	for _, slab := range l.slabs {
		n += len(slab)
	}
	return n
}

// The final placeholders every record made from a known outcome points at —
// a row thawed, a deferred write, a frozen version handed out as a record:
// its outcome lives in the record, so one functor of each f-type serves them
// all. An aborted or skipped version is read through either way.
var (
	_finalValue   = functor.Value(nil)
	_finalDeleted = functor.Deleted()
	_finalAborted = functor.Aborted()
)

func finalPlaceholder(kind functor.ResolutionKind) *functor.Functor {
	switch kind {
	case functor.ResolvedDeleted:
		return _finalDeleted
	case functor.ResolvedAborted, functor.ResolvedSkipped:
		return _finalAborted
	}
	return _finalValue
}

// table numbers what a shard's entries name: chains, or histories. A number
// freed by a fold, a thaw or a drop is reused first.
type table[T any] struct {
	items []T
	free  []uint32
}

// add files v under a number and returns it.
func (t *table[T]) add(v T) uint64 {
	if n := len(t.free); n > 0 {
		num := t.free[n-1]
		t.free = t.free[:n-1]
		t.items[num] = v
		return uint64(num)
	}
	t.items = append(t.items, v)
	return uint64(len(t.items) - 1)
}

// remove frees number num.
func (t *table[T]) remove(num uint64) {
	var zero T
	t.items[num] = zero
	t.free = append(t.free, uint32(num))
}

// len is how many numbers are in use.
func (t *table[T]) len() int { return len(t.items) - len(t.free) }

// chain returns the chain a chain entry names.
func (sh *shard) chain(e []byte) *Chain { return sh.chains.items[entryWord(e)] }

// history returns the run a history entry names.
func (sh *shard) history(e []byte) run { return sh.histories.items[entryWord(e)].run() }

// histRef is a history's run as the histories table keeps it, in 24 bytes
// where a run's two slices take 48: a run's entries and data share one
// buffer, its data starting where its entries' capacity ends (run.packed
// lays it out so, and cut, drop and an append in place keep it so), so the
// entries' pointer and four lengths name both. A history's run always has
// an entry.
type histRef struct {
	ents       *frozen
	elen, ecap uint32
	dlen, dcap uint32
}

func refOf(r run) histRef {
	h := histRef{ents: unsafe.SliceData(r.ents), elen: uint32(len(r.ents)), ecap: uint32(cap(r.ents)), dlen: uint32(len(r.data)), dcap: uint32(cap(r.data))}
	if h.dcap > 0 && unsafe.SliceData(r.data) != h.dataStart() {
		panic("mvstore: a run's data does not follow its entries")
	}
	return h
}

// dataStart is where the run's data begins: past the entries' capacity.
func (h histRef) dataStart() *byte {
	return (*byte)(unsafe.Add(unsafe.Pointer(h.ents), uintptr(h.ecap)*unsafe.Sizeof(frozen{})))
}

func (h histRef) run() run {
	r := run{ents: unsafe.Slice(h.ents, h.ecap)[:h.elen]}
	if h.dcap > 0 {
		r.data = unsafe.Slice(h.dataStart(), h.dcap)[:h.dlen]
	}
	return r
}

// create gives k, which has no entry, an empty chain. Callers hold sh.mu for
// writing.
func (sh *shard) create(k kv.Key, m uint64) *Chain {
	c := new(Chain)
	if !sh.rows.put(k, m, sh.chains.add(c), _entryChain, nil) {
		// Of 65 536 slabs all but the first eight hold 1 MB or more: the
		// process runs out of memory long before a shard runs out of slabs.
		panic("mvstore: a store shard has run out of slabs")
	}
	return c
}

// thaw turns the row or history e into the chain it stands for and
// rewrites the entry to name the chain. Callers hold sh.mu for writing.
//
// A row becomes the embedded first record, carrying the row's version and
// outcome, its value still in the slab. A history's newest version becomes
// the first record and the rest is the chain's frozen run as it lies: the
// run and the record share the history's buffer, which nothing writes
// again (run.appendRecords takes the newest version's entry back where it
// is), so no byte is copied and a reader still holding the history keeps
// it whole.
func (sh *shard) thaw(e []byte) *Chain {
	c := new(Chain)
	if isRow(e) {
		c.putResolved(rowVersion(e), rowKind(e), rowValue(e))
		c.AdvanceWatermark(rowWatermark(e))
	} else {
		h := sh.history(e)
		sh.histories.remove(entryWord(e))
		last := h.len() - 1
		rec := &c.first
		h.fill(last, rec)
		b := &c.blk
		if rest := h.cut(last); rest.len() > 0 {
			b = newBlock(2, rest)
		} else {
			b.recs = c.slot[:]
		}
		b.recs[0] = rec
		b.n.Store(1)
		c.cur.Store(b)
		c.AdvanceWatermark(rec.Version)
	}
	rename(e, sh.chains.add(c), _entryChain)
	sh.thaws++
	return c
}

// fold replaces the chain entry at index position pos, whose chain is c,
// with a row or a history of c's settled history (Store.Fold). Callers hold
// sh.mu for writing; fold takes c.mu.
func (sh *shard) fold(pos int, e []byte, k kv.Key, m uint64, c *Chain) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, n := c.settled()
	if n == 0 || c.staged != 0 {
		return false
	}
	num := entryWord(e)
	if rec := b.recs[0]; n == 1 && !b.frozen { // one sealed version, nothing frozen
		if kind, value, ext := rec.Outcome(); ext == nil && sh.settle(pos, e, k, m, Row{rec.Version, kind, value}) {
			sh.chains.remove(num)
			sh.folds++
			return true
		}
	}
	recs := b.recs[:b.n.Load()]
	for _, rec := range recs {
		if !rec.Final() {
			return false
		}
	}
	h, took := b.run().appendRecords(recs)
	if took < len(recs) {
		return false
	}
	rename(e, sh.histories.add(refOf(h)), _entryHistory)
	sh.chains.remove(num)
	sh.folds++
	return true
}

// settle replaces the entry e, at index position pos, with a settled row
// holding r when a row holds it — a plain outcome that fits: a fresh entry,
// e left behind dead. The caller frees what e named. Callers hold sh.mu for
// writing.
func (sh *shard) settle(pos int, e []byte, k kv.Key, m uint64, r Row) bool {
	if !plain(r.Kind) || len(k)+len(r.Value) > _maxRow {
		return false
	}
	slot, ok := sh.rows.append(k, m, uint64(r.Version), rowFlags(r.Kind, true), r.Value)
	if ok {
		sh.rows.index[pos] = slot
		e[8] |= _rowDead
	}
	return ok
}

// compact drops, where they lie, the versions of the history e that
// Chain.Compact would drop at bound, but never the newest, and returns how
// many. A history of one version a row holds, left so or found so, becomes
// that row, as a chain of one folds. Callers hold sh.mu for writing.
func (sh *shard) compact(pos int, e []byte, k kv.Key, m uint64, bound tstamp.Timestamp) int {
	num, h := entryWord(e), sh.history(e)
	drop := min(History{run: h}.keepFrom(bound), h.len()-1) // a history keeps its newest version
	h = h.drop(drop)
	if h.len() == 1 && len(h.extra(0)) == 0 && sh.settle(pos, e, k, m, h.row(0)) {
		sh.histories.remove(num)
	} else if drop > 0 {
		sh.histories.items[num] = refOf(h)
	}
	return drop
}
