package core

import (
	"alohadb/internal/kv"
	"alohadb/internal/obs/journal"
	"alohadb/internal/tstamp"
)

// FoldSettled folds every chain of the server's store that has settled, as
// the processor does after it computes a key: the external model test folds
// keys wherever its schedule stands, not only where a computation ends.
func (s *Server) FoldSettled() {
	s.store.RangeKeys(func(k kv.Key) bool {
		if c, _, _ := s.store.Read(k, 0); c != nil {
			s.store.Fold(k, c)
		}
		return true
	})
}

// RetireLists reports how many per-epoch retirement lists the server holds
// (the external model test bounds it by retention + 2).
func (s *Server) RetireLists() int {
	t := s.epochs
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.recs {
		if t.recs[i].retire != nil {
			n = i + 1
		}
	}
	return n
}

// records lists the epochs whose records hold anything, and of those the
// ones still buffering installs.
func (t *epochTable) records() (held, buffered []tstamp.Epoch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.recs {
		e := t.base + tstamp.Epoch(i)
		if !t.recs[i].empty() {
			held = append(held, e)
		}
		if t.recs[i].segs != nil {
			buffered = append(buffered, e)
		}
	}
	return held, buffered
}

// takeBuffered takes epoch e's buffered installs as a commit turn would,
// leaving the rest of the table as it is.
func (t *epochTable) takeBuffered(e tstamp.Epoch) []segment {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.find(e)
	if r == nil {
		return nil
	}
	segs := r.segs
	r.segs = nil
	return segs
}

// VisibleBound returns the exclusive upper bound of committed, readable
// versions (the end of the last committed epoch).
func (s *Server) VisibleBound() tstamp.Timestamp { return s.visibleBound() }

// CurrentEpoch returns the epoch the server currently issues timestamps
// in (zero before the first grant arrives).
func (s *Server) CurrentEpoch() tstamp.Epoch { return s.gen.Epoch() }

// Journal exposes the server's epoch lifecycle journal.
func (s *Server) Journal() *journal.Journal { return s.journal }
