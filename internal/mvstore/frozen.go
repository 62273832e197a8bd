package mvstore

import (
	"math"
	"sort"
	"unsafe"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// A chain's history has two tiers. Below the value watermark every version
// is final and immutable (paper §III-D), so it needs no record to resolve,
// no functor to compute and no Resolution behind a pointer: Freeze moves
// such versions out of the record array into the chain's frozen run, bytes
// the collector never scans. The records keep what is still moving — the
// versions above the watermark, the staged ones — and the newest sealed
// version, whatever it is, so that View still ends with the key's latest
// record.
//
//	run:  ents [ version | off | vlen<<3 kind ] ...   oldest first
//	      data [ value | resolution? ][ value | resolution? ] ...
//
// An entry's value is data[off:off+vlen]. An outcome that carries more than
// a value a reader may still ask for — an abort reason, a determinate
// functor's dependent writes that did not land — follows it, encoded with
// functor.AppendResolution (its value left out), up to the next entry's off
// or the end of data; any other outcome is its value alone (frozenOutcome).
// Both arrays live in one buffer that holds no pointer (packed).
//
// A run is published with the record array it replaces, in one block (see
// Chain), so a lock-free reader holds a consistent pair. Published bytes are
// never written again: a freeze appends past the published length, as a seal
// does in the record array, and retention drops a frozen prefix by slicing
// it off. Its bytes are reclaimed when the run next has to grow.
//
// A key whose whole history has settled keeps nothing but a run: a history
// (rows.go), which Store.Fold makes by appending the chain's records to its
// run, in place when there is room. A write thaws it into a chain again
// whose block carries the run as it lies, cut before the newest version,
// which becomes the chain's one record (shard.thaw); the next freeze or fold
// appends past it, taking the newest version's entry back where it lies.
type run struct {
	ents []frozen
	data []byte
}

// frozen is one version of a run.
type frozen struct {
	version tstamp.Timestamp
	off     uint32
	meta    uint32 // value length << 3 | kind
}

const (
	// _freezeMin is the fewest versions a freeze moves. A freeze also needs
	// half the chain's sealed records: the survivors it copies into a fresh
	// array are paid for by the versions it moves.
	_freezeMin = 8
	// _maxFrozenValue caps a frozen value's length to what meta holds.
	_maxFrozenValue = 1<<29 - 1
)

func (r run) len() int { return len(r.ents) }

func (r run) version(i int) tstamp.Timestamp { return r.ents[i].version }

// newest is the version of the run's last entry; the run is not empty.
func (r run) newest() tstamp.Timestamp { return r.ents[len(r.ents)-1].version }

// outcome returns entry i's kind and its value, aliasing the run.
func (r run) outcome(i int) (functor.ResolutionKind, kv.Value) {
	e := r.ents[i]
	vlen := e.meta >> 3
	if vlen == 0 {
		return functor.ResolutionKind(e.meta & 7), nil
	}
	return functor.ResolutionKind(e.meta & 7), r.data[e.off : e.off+vlen : e.off+vlen]
}

// extra returns the encoded rest of entry i's outcome, empty for a plain one.
func (r run) extra(i int) []byte {
	e := r.ents[i]
	end := uint32(len(r.data))
	if i+1 < len(r.ents) {
		end = r.ents[i+1].off
	}
	return r.data[e.off+e.meta>>3 : end]
}

// holds says whether the run has an entry of version v.
func (r run) holds(v tstamp.Timestamp) bool {
	i := r.search(v) - 1
	return i >= 0 && r.ents[i].version == v
}

// search returns how many entries have a version at or below max.
func (r run) search(max tstamp.Timestamp) int {
	return sort.Search(len(r.ents), func(i int) bool { return r.ents[i].version > max })
}

// resolution returns entry i's outcome as a fresh Resolution: the cold path.
func (r run) resolution(i int) *functor.Resolution {
	kind, value := r.outcome(i)
	more := r.extra(i)
	if len(more) == 0 {
		return &functor.Resolution{Kind: kind, Value: value}
	}
	res, _, err := functor.DecodeResolution(more)
	if err != nil {
		panic("mvstore: a frozen run does not decode: " + err.Error())
	}
	res.Value = value
	return res
}

// record returns entry i as a fresh final record, behind the shared
// placeholder of its kind: the cold path of the readers that need a *Record
// of a frozen version.
func (r run) record(i int) *Record {
	rec := new(Record)
	r.fill(i, rec)
	return rec
}

// fill makes rec, a record never published, entry i.
func (r run) fill(i int, rec *Record) {
	kind, value := r.outcome(i)
	rec.Version, rec.Functor = r.ents[i].version, finalPlaceholder(kind)
	var ext *functor.Resolution
	if len(r.extra(i)) > 0 {
		ext = r.resolution(i)
	}
	rec.resolve(kind, value, ext)
}

// row returns entry i as a Row, its value aliasing the run.
func (r run) row(i int) Row {
	kind, value := r.outcome(i)
	return Row{Version: r.ents[i].version, Kind: kind, Value: value}
}

// seen returns the index of the entry a read at max stops at: the newest at
// or below max that is neither aborted nor skipped (Algorithm 1 reads
// through those), else the newest at or below max; -1 when there is none.
func (r run) seen(max tstamp.Timestamp) int {
	n := r.search(max)
	for i := n - 1; i >= 0; i-- {
		if kind, _ := r.outcome(i); plain(kind) {
			return i
		}
	}
	return n - 1
}

// records returns every entry as a fresh final record, oldest first.
func (r run) records() []*Record {
	out := make([]*Record, len(r.ents))
	for i := range out {
		out[i] = r.record(i)
	}
	return out
}

// drop returns the run without its first k entries, fewer than it holds.
// Their bytes stay in data until the run next grows.
func (r run) drop(k int) run { return run{ents: r.ents[k:], data: r.data} }

// cut returns the run's first k entries, and only their data, with the
// buffer's room behind them: a chain thawed from a history holds the rest
// as a record, and takes it back in place at its next freeze or fold.
func (r run) cut(k int) run {
	if k == len(r.ents) {
		return r
	}
	return run{ents: r.ents[:k], data: r.data[:r.ents[k].off]}
}

// bytes is what the run's live entries take: the entries and their data.
func (r run) bytes() int {
	if len(r.ents) == 0 {
		return 0
	}
	return len(r.ents)*int(unsafe.Sizeof(frozen{})) + len(r.data) - int(r.ents[0].off)
}

// appendRecords returns r with the outcomes of recs — final records,
// ascending above r's newest version — appended, and how many of them it
// took: all, unless a value is over _maxFrozenValue or the data would pass
// 4 GB. It sizes what it appends first, so it writes past r's published
// length in place or, when r has no room for it, into one fresh buffer.
//
// A version whose entry already lies in place past r's length — the same
// version, offset and outcome — is taken as it lies and not written again:
// r was cut from a longer run that holds it (a history thawed), and a reader
// of that run, or the record the thaw built, may be reading it. A version's
// outcome is final, so the bytes there are the ones it would write. Where
// such an entry lies and another version would take its place (a version
// written below the thawed one), the run moves to a fresh buffer instead.
func (r run) appendRecords(recs []*Record) (run, int) {
	need, k := 0, 0
	inPlace := true
	for _, rec := range recs {
		e, size := entryAt(rec, len(r.data)+need)
		if _, value, _ := rec.Outcome(); len(value) > _maxFrozenValue || len(r.data)+need+size > math.MaxUint32 {
			break
		}
		if n := len(r.ents) + k; n < cap(r.ents) {
			if was := r.ents[:n+1][n]; was != (frozen{}) && was != e {
				inPlace = false
			}
		}
		need += size
		k++
	}
	if k == 0 {
		return r, 0
	}
	if !inPlace || cap(r.ents)-len(r.ents) < k || cap(r.data)-len(r.data) < need {
		r = r.packed(k, need)
	}
	ents, data := r.ents, r.data
	for _, rec := range recs[:k] {
		e, size := entryAt(rec, len(data))
		if n := len(ents); ents[:n+1][n] == e {
			ents, data = ents[:n+1], data[:len(data)+size]
			continue
		}
		_, value, extra, more := frozenOutcome(rec)
		data = append(data, value...)
		if more {
			data = functor.AppendResolution(data, &extra)
		}
		ents = append(ents, e)
	}
	return run{ents: ents, data: data}, k
}

// entryAt returns rec's entry with its outcome at data offset off, and how
// many data bytes the outcome takes.
func entryAt(rec *Record, off int) (frozen, int) {
	kind, value, extra, more := frozenOutcome(rec)
	size := len(value)
	if more {
		size += functor.ResolutionLen(&extra)
	}
	return frozen{version: rec.Version, off: uint32(off), meta: uint32(len(value))<<3 | uint32(kind)}, size
}

// frozenOutcome is what a run keeps of rec's outcome: its kind and value
// and, when more is set, extra — the rest of the outcome without its value,
// which the entry holds. A determinate functor's dependent writes that
// landed (Record.Landed) live in the rows they wrote, so an outcome whose
// writes landed and that has no reason is kept as its value alone, like a
// plain one. Writes that did not land stay, byte for byte: a marker they
// left unresolved learns its value from them through an ensure. The answer
// is the same each time a version is encoded, as appendRecords' take-back
// in place needs: the mark is set before the version can freeze, and a
// record filled from a run has extra exactly when its entry had.
func frozenOutcome(rec *Record) (kind functor.ResolutionKind, value kv.Value, extra functor.Resolution, more bool) {
	kind, value, ext := rec.Outcome()
	if ext == nil || ext.Reason == "" && rec.Landed() {
		return kind, value, functor.Resolution{}, false
	}
	return kind, value, functor.Resolution{Kind: kind, Reason: ext.Reason, DependentWrites: ext.DependentWrites}, true
}

// packed returns the run's live part in one fresh buffer, entries first and
// their data behind them, with room for k more entries and need more bytes:
// a run costs its chain one object, which the collector never scans. A
// chain's first run is sized to fit — most chains freeze once or twice — and
// a run that grows again gets room besides for another freeze as large, or
// half the run when that is more, so each byte is copied three times,
// amortised, and a long run's slack stays a third of it at most. What
// retention dropped is left behind.
func (r run) packed(k, need int) run {
	const entSize = int(unsafe.Sizeof(frozen{}))
	var base uint32
	if len(r.ents) > 0 {
		base = r.ents[0].off
	}
	live := len(r.data) - int(base)
	entsCap, dataCap := len(r.ents)+k, live+need
	if len(r.ents) > 0 {
		entsCap, dataCap = entsCap+max(entsCap/2, k), dataCap+max(dataCap/2, need)
	}
	buf := make([]byte, entsCap*entSize+dataCap)
	ents := unsafe.Slice((*frozen)(unsafe.Pointer(unsafe.SliceData(buf))), entsCap)[:len(r.ents)]
	for i, e := range r.ents {
		e.off -= base
		ents[i] = e
	}
	data := buf[entsCap*entSize:]
	return run{ents: ents, data: data[:copy(data, r.data[base:])]}
}

// History is one consistent snapshot of a chain's sealed versions, ascending
// by version: the frozen run, then the records. A version at an index below
// Frozen has no record; Outcome answers for both tiers, and no accessor
// allocates.
type History struct {
	run  run
	recs []*Record
}

// History returns the chain's sealed history, both tiers in one pair.
func (c *Chain) History() History {
	b := c.cur.Load()
	if b == nil {
		return History{}
	}
	n := b.n.Load()
	return History{run: b.run(), recs: b.recs[:n:n]}
}

// Len is the number of sealed versions.
func (h History) Len() int { return h.run.len() + len(h.recs) }

// Frozen is the number of versions in the frozen run: those at indices
// below it.
func (h History) Frozen() int { return h.run.len() }

// Records are the versions that are records, oldest first: the history from
// index Frozen on. Callers must not mutate it.
func (h History) Records() []*Record { return h.recs }

// Version returns the version at index i.
func (h History) Version(i int) tstamp.Timestamp {
	if f := h.run.len(); i >= f {
		return h.recs[i-f].Version
	}
	return h.run.version(i)
}

// Outcome returns the kind (zero while not computed) and value of the
// version at index i. A reason or dependent writes are read from the record
// (Record), or, for a frozen version, from the fresh one Chain.At and
// Store.View hand out.
func (h History) Outcome(i int) (functor.ResolutionKind, kv.Value) {
	if f := h.run.len(); i >= f {
		kind, value, _ := h.recs[i-f].Outcome()
		return kind, value
	}
	return h.run.outcome(i)
}

// Record returns the record at index i, or nil when the version is frozen.
func (h History) Record(i int) *Record {
	if f := h.run.len(); i >= f {
		return h.recs[i-f]
	}
	return nil
}

// Search returns how many versions are at or below max: the index of the
// first version above it.
func (h History) Search(max tstamp.Timestamp) int {
	f := h.run.len()
	if f > 0 && (len(h.recs) == 0 || max < h.recs[0].Version) {
		return h.run.search(max)
	}
	return f + sort.Search(len(h.recs), func(i int) bool { return h.recs[i].Version > max })
}

// materialize returns the record at index i, a fresh final one when the
// version is frozen: the cold path of the readers that need a *Record.
func (h History) materialize(i int) *Record {
	if rec := h.Record(i); rec != nil {
		return rec
	}
	return h.run.record(i)
}

// all returns the whole history as records, fresh ones for the frozen tier.
func (h History) all() []*Record {
	if h.run.len() == 0 {
		return h.recs
	}
	return append(h.run.records(), h.recs...)
}

// wantsFreeze is Freeze's check before the lock: whether the sealed records
// of b begin with at least _freezeMin, and half of them, at or below the
// watermark w, leaving the newest out.
func wantsFreeze(b *block, w tstamp.Timestamp) bool {
	n := int(b.n.Load())
	k := max(_freezeMin, n/2)
	return k < n && b.recs[k-1].Version <= w
}

// Freeze moves the chain's oldest sealed versions into its frozen run: every
// one that is final and at or below the watermark, save the newest sealed
// version, which stays a record. It moves them only when they are at least
// _freezeMin and half the chain's sealed records, and returns how many it
// moved. When it declines it has taken no lock and allocated nothing.
//
// A reader that holds a record of a version Freeze moves keeps it, final as
// it was; the chain hands out a fresh record of the version from then on.
func (c *Chain) Freeze() int {
	if b := c.cur.Load(); b == nil || !wantsFreeze(b, c.Watermark()) {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.cur.Load()
	n := int(b.n.Load())
	if n <= _freezeMin {
		return 0 // compacted since the check
	}
	older := b.recs[:n-1]
	w := c.Watermark()
	k := sort.Search(len(older), func(i int) bool { return older[i].Version > w })
	for i, rec := range older[:k] {
		if !rec.Final() {
			k = i
			break
		}
	}
	if k < max(_freezeMin, n/2) {
		return 0
	}
	r, k := b.run().appendRecords(older[:k])
	if k == 0 {
		return 0
	}
	// The survivors move to a fresh array: the old one still points at the
	// records just frozen, and readers may hold it.
	c.replace(b.recs[k:n+int(c.staged)], n-k, r)
	return k
}
