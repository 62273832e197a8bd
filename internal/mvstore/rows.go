package mvstore

import (
	"encoding/binary"
	"unsafe"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// A row is the whole history of a key whose only version was born final — a
// bulk-loaded or checkpointed value, a deferred write — and has not been
// touched since. Below a key's watermark every version is immutable and read
// without synchronization (paper §III-D), and such a version is born there:
// it needs no record to resolve, no array to grow and no mutex, so it is not
// a heap object at all. It is bytes in its shard's row log,
//
//	version u64 | flags u8 | klen u16 | vlen u16 | key | value
//
// found through an open-addressing index of 8-byte slots. Neither the slabs
// nor the index hold a pointer, so the collector never looks inside them:
// 200 k rows are a few hundred objects where 200 k chains are 600 k.
//
// A key lives in its shard's chain map or in its row index, never in both,
// and only ever moves from the index to the map: the first caller that needs
// a *Chain or a *Record of the key thaws the row (see shard.thaw). The bytes
// of a row never change once written — readers keep the value they were
// handed without holding a lock — except its dead flag, which only code
// holding the shard lock reads.
const (
	_rowHeader = 13
	// _maxRow is the most key and value bytes a row holds; a larger
	// born-final write takes the chain path.
	_maxRow = 16 << 10

	// Slabs start at 4 KB and double to 1 MB; a slot names one in 16 bits.
	_minSlab       = 4 << 10
	_slabDoublings = 8
	_maxSlabs      = 1 << 16

	_rowKindMask = 0x07
	// _rowSettled: nothing older than the row can arrive (a load, a
	// checkpoint), so the key's watermark stands at the row's version.
	_rowSettled = 0x40
	// _rowDead: thawed or dropped; the index no longer points here.
	_rowDead = 0x80

	_slotEmpty = 0
	_slotTomb  = 1
)

// rowLog is one shard's rows, guarded by the shard's mutex.
type rowLog struct {
	// slabs are append-only and never reallocated: 4 KB doubling to 1 MB.
	slabs [][]byte
	// index is a power-of-two table of slots, tag<<48 | slab<<32 | offset,
	// probed linearly from the key's mixed hash. Tags are never zero, so no
	// slot reads as empty or as a tombstone.
	index []uint64
	live  int // rows the index points at
	used  int // slots not empty: live rows and tombstones
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

func rowVersion(row []byte) tstamp.Timestamp {
	return tstamp.Timestamp(binary.LittleEndian.Uint64(row))
}

func rowKind(row []byte) functor.ResolutionKind {
	return functor.ResolutionKind(row[8] & _rowKindMask)
}

// rowWatermark is the watermark the key's chain would have.
func rowWatermark(row []byte) tstamp.Timestamp {
	if row[8]&_rowSettled != 0 {
		return rowVersion(row)
	}
	return 0
}

func rowLens(row []byte) (klen, vlen int) {
	return int(binary.LittleEndian.Uint16(row[9:])), int(binary.LittleEndian.Uint16(row[11:]))
}

// rowKey returns the row's key aliasing the slab, which is never rewritten.
func rowKey(row []byte) kv.Key {
	klen, _ := rowLens(row)
	return kv.Key(unsafe.String(unsafe.SliceData(row[_rowHeader:]), klen))
}

// rowValue returns the row's value aliasing the slab, capped so that an
// append through it cannot reach the next row. An empty value is nil.
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

// find returns k's index position and row, or -1. m is mix(kv.Hash(k)).
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
		if row := l.row(slot); rowKey(row) == k {
			return int(i), row
		}
	}
}

// put appends a row for k, which the caller has found to have neither a row
// nor a chain, and indexes it; key and value are copied. It reports false
// when the log has run out of slab numbers.
func (l *rowLog) put(k kv.Key, m uint64, version tstamp.Timestamp, kind functor.ResolutionKind, settled bool, value kv.Value) bool {
	flags := byte(kind)
	if settled {
		flags |= _rowSettled
	}
	size := _rowHeader + len(k) + len(value)
	last := len(l.slabs) - 1
	if last < 0 || cap(l.slabs[last])-len(l.slabs[last]) < size {
		if len(l.slabs) == _maxSlabs {
			return false
		}
		l.slabs = append(l.slabs, make([]byte, 0, max(_minSlab<<min(len(l.slabs), _slabDoublings), size)))
		last++
	}
	slab := l.slabs[last]
	off := len(slab)
	slab = binary.LittleEndian.AppendUint64(slab, uint64(version))
	slab = append(slab, flags)
	slab = binary.LittleEndian.AppendUint16(slab, uint16(len(k)))
	slab = binary.LittleEndian.AppendUint16(slab, uint16(len(value)))
	slab = append(slab, k...)
	l.slabs[last] = append(slab, value...)

	if (l.used+1)*4 > len(l.index)*3 {
		l.rehash()
	}
	l.insert(m, slotTag(m)<<48|uint64(last)<<32|uint64(off))
	return true
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
// the live rows alone would fill half of it. It rehashes every row's key:
// O(rows of the shard) under the shard lock.
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

// remove forgets the row at index position pos. Its bytes stay where they
// are: a thawed record's value lives on in them.
func (l *rowLog) remove(pos int, row []byte) {
	l.index[pos] = _slotTomb
	row[8] |= _rowDead
	l.live--
}

// each calls fn for every live row in the order they were written.
func (l *rowLog) each(fn func(row []byte)) {
	for _, slab := range l.slabs {
		for off := 0; off < len(slab); {
			row := slab[off:]
			klen, vlen := rowLens(row)
			if row[8]&_rowDead == 0 {
				fn(row)
			}
			off += _rowHeader + klen + vlen
		}
	}
}

// bytes is what the slabs hold, dead rows included.
func (l *rowLog) bytes() int {
	n := 0
	for _, slab := range l.slabs {
		n += len(slab)
	}
	return n
}

// The two final placeholders every record made from a known outcome points
// at: its value lives in the record, so one functor of each f-type serves
// them all.
var (
	_finalValue   = functor.Value(nil)
	_finalDeleted = functor.Deleted()
)

func finalPlaceholder(kind functor.ResolutionKind) *functor.Functor {
	if kind == functor.ResolvedDeleted {
		return _finalDeleted
	}
	return _finalValue
}

// thaw turns the row at index position pos into the chain it stands for —
// the embedded first record carrying the row's version and outcome, its
// value still in the slab — and moves the key from the index to the map.
// Callers hold sh.mu for writing.
func (sh *shard) thaw(pos int, row []byte) *Chain {
	c := new(Chain)
	c.PutResolved(rowVersion(row), rowKind(row), rowValue(row))
	c.AdvanceWatermark(rowWatermark(row))
	sh.chains[rowKey(row)] = c
	sh.rows.remove(pos, row)
	sh.thaws++
	return c
}

// thawAll thaws every row of the shard.
func (sh *shard) thawAll() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.rows.each(func(row []byte) {
		pos, _ := sh.rows.find(rowKey(row), mix(kv.Hash(rowKey(row))))
		sh.thaw(pos, row)
	})
}
