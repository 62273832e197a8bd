package mvstore

import (
	"sort"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// ExportedRecord is one version record flattened for transfer between
// partitions during a placement handoff: the functor plus whatever
// resolution had been installed at export time. It is wire-friendly (all
// fields exported, no atomics) so migration messages can carry it over any
// transport.
type ExportedRecord struct {
	Version    tstamp.Timestamp
	Functor    *functor.Functor
	Resolution *functor.Resolution
}

// KeyExport is one key's full version chain as captured by ExportMatching:
// sealed and staged records ascending by version, plus the value watermark.
type KeyExport struct {
	Key       kv.Key
	Records   []ExportedRecord
	Watermark tstamp.Timestamp
}

// export snapshots the chain — frozen run, sealed records and staged ones —
// under the chain mutex, so no concurrently staged record is missed. A
// frozen version goes out as a row does: the shared placeholder of its kind
// and its outcome, reason and dependent writes included. Callers serialize
// against new inserts themselves (the migration barrier runs when no install
// is in flight).
func (c *Chain) export() ([]ExportedRecord, tstamp.Timestamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		r    run
		live []*Record
	)
	if b := c.cur.Load(); b != nil {
		r, live = b.run(), b.recs[:int(b.n.Load())+int(c.staged)]
	}
	out := r.export(make([]ExportedRecord, 0, r.len()+len(live)))
	for _, r := range live {
		out = append(out, ExportedRecord{Version: r.Version, Functor: r.Functor, Resolution: r.Resolution()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, tstamp.Timestamp(c.watermark.Load())
}

// export appends every entry of the run as a row is exported: the shared
// placeholder of its kind and its outcome, reason and dependent writes
// included.
func (r run) export(out []ExportedRecord) []ExportedRecord {
	for i := 0; i < r.len(); i++ {
		res := r.resolution(i)
		out = append(out, ExportedRecord{Version: r.version(i), Functor: finalPlaceholder(res.Kind), Resolution: res})
	}
	return out
}

// ExportKey snapshots one key's chain for migration; a row or a history is
// exported as the chain it stands for, its watermark at its newest version,
// and stays as it is. ok is false when the key has never been written here.
func (s *Store) ExportKey(k kv.Key) (recs []ExportedRecord, watermark tstamp.Timestamp, ok bool) {
	sh, m := s.locate(k)
	sh.mu.RLock()
	pos, e := sh.rows.find(k, m)
	switch {
	case pos < 0:
		sh.mu.RUnlock()
		return nil, 0, false
	case isChain(e):
		c := sh.chain(e)
		sh.mu.RUnlock()
		recs, watermark = c.export()
		return recs, watermark, true
	case isHistory(e):
		h := sh.history(e)
		sh.mu.RUnlock()
		return h.export(make([]ExportedRecord, 0, h.len())), h.newest(), true
	}
	r := rowOf(e)
	recs = []ExportedRecord{{Version: r.Version, Functor: finalPlaceholder(r.Kind), Resolution: &functor.Resolution{Kind: r.Kind, Value: r.Value}}}
	watermark = rowWatermark(e)
	sh.mu.RUnlock()
	return recs, watermark, true
}

// ExportMatching snapshots every key accepted by match, sorted by key. The
// rebalancer uses it to lift a sealed range out of the old owner's store.
func (s *Store) ExportMatching(match func(kv.Key) bool) []KeyExport {
	var keys []kv.Key
	s.RangeKeys(func(k kv.Key) bool {
		if match(k) {
			keys = append(keys, k)
		}
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]KeyExport, 0, len(keys))
	for _, k := range keys {
		if recs, wm, ok := s.ExportKey(k); ok {
			out = append(out, KeyExport{Key: k, Records: recs, Watermark: wm})
		}
	}
	return out
}

// Drop removes a key's entire chain, or its row or history, reporting
// whether it existed. The old owner retires migrated replicas with it once the handoff
// has settled; dropping a chain with unresolved records would lose functors,
// so callers check finality first.
func (s *Store) Drop(k kv.Key) bool {
	sh, m := s.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pos, e := sh.rows.find(k, m)
	if pos < 0 {
		return false
	}
	switch {
	case isChain(e):
		sh.chains.remove(entryWord(e))
	case isHistory(e):
		sh.histories.remove(entryWord(e))
	}
	sh.rows.remove(pos, e)
	return true
}
