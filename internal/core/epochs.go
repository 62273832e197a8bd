package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"alohadb/internal/kv"
	"alohadb/internal/obs"
	"alohadb/internal/tstamp"
)

// epochTable is a server's epoch lifecycle (§III-B/C) under one mutex: the
// generator's retargets, one record per live epoch and the commit frontier.
// Each transition takes the lock, changes state and returns what the caller
// does outside it (the ack to send, the segments to seal and hand off, the
// keys to compact); none sends, logs, fsyncs or stamps the journal. Lock
// order: the table, then a processor shard's mu or freeMu.
type epochTable struct {
	mu   sync.Mutex
	gen  *tstamp.Generator
	proc *processor // chunks and segment slices come off its free list

	// recs[i] is epoch base+i's record: the window runs from the oldest
	// epoch holding a retire list to the newest one named.
	base tstamp.Epoch
	recs []epochRec
	// The frontier, every bound exclusive: turns took the installs of the
	// epochs below taken (a later install of one is late); want is one past
	// the newest epoch a Committed named; lists below retired were handed
	// out.
	taken, want, retired tstamp.Epoch
	committing           bool // a commit turn is running
	failed               bool // a durable marker failed: nothing is published any more
	// visible is End(e) once e committed, loaded by the read path without
	// the lock; visibleCh is closed and replaced at each publication.
	visible   atomic.Uint64
	visibleCh chan struct{}
}

// epochRec is one epoch's record; a taken epoch keeps its retire list alone.
type epochRec struct {
	open int       // reservations not yet released
	txns uint64    // transactions begun, observed into FamEpochTxns at commit
	ack  func()    // the revoke's ack, parked while reservations are open
	segs []segment // installs, one segment per processor shard
	// retire lists the keys that gained a readable version in the epoch,
	// compacted by the commit whose horizon passes it (retention.go).
	retire []kv.Key
}

func (r *epochRec) empty() bool {
	return r.open == 0 && r.txns == 0 && r.ack == nil && r.segs == nil && r.retire == nil
}

// commitTurn commits every epoch in [from, e], under one marker and one
// publication.
type commitTurn struct {
	from tstamp.Epoch
	e    tstamp.Epoch
	segs []segment // their installs, one segment per shard, oldest epoch first
	txns uint64
}

func newEpochTable(gen *tstamp.Generator, proc *processor) *epochTable {
	return &epochTable{gen: gen, proc: proc, visibleCh: make(chan struct{})}
}

// at returns epoch e's record, widening the window to hold it.
func (t *epochTable) at(e tstamp.Epoch) *epochRec {
	switch {
	case len(t.recs) == 0:
		t.base = e
	case e < t.base:
		t.recs = slices.Insert(t.recs, 0, make([]epochRec, t.base-e)...)
		t.base = e
	}
	for int(e-t.base) >= len(t.recs) {
		t.recs = append(t.recs, epochRec{})
	}
	return &t.recs[e-t.base]
}

// find returns epoch e's record, nil outside the window.
func (t *epochTable) find(e tstamp.Epoch) *epochRec {
	if e < t.base || int(e-t.base) >= len(t.recs) {
		return nil
	}
	return &t.recs[e-t.base]
}

// trim drops the empty records at the front of the window.
func (t *epochTable) trim() {
	n := 0
	for n < len(t.recs) && t.recs[n].empty() {
		n++
	}
	k := copy(t.recs, t.recs[n:])
	clear(t.recs[k:])
	t.recs, t.base = t.recs[:k], t.base+tstamp.Epoch(n)
}

func (t *epochTable) grant(e tstamp.Epoch) {
	t.mu.Lock()
	t.gen.SetEpoch(e)
	t.mu.Unlock()
}

// revoke retargets the generator at e+1 (straggler mode, §III-C) and parks
// the ack while a reservation of e is open; else the caller sends it.
func (t *epochTable) revoke(e tstamp.Epoch, ack func()) func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen.SetEpoch(e + 1)
	if r := t.find(e); r != nil && r.open > 0 {
		r.ack = ack
		return nil
	}
	return ack
}

// begin opens a reservation for txns transactions in the epoch the
// generator targets: under revoke's lock, so it either holds e's ack or was
// taken in e+1.
func (t *epochTable) begin(txns int) (tstamp.Epoch, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.gen.Epoch()
	if e == 0 {
		return 0, fmt.Errorf("core: cluster not started")
	}
	r := t.at(e)
	r.open++
	r.txns += uint64(txns)
	return e, nil
}

// end closes a reservation of e and returns the parked ack if it was the
// last. A turn that took e left nothing to release.
func (t *epochTable) end(e tstamp.Epoch) (ack func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.find(e); r != nil && r.open > 0 {
		if r.open--; r.open == 0 {
			ack, r.ack = r.ack, nil
		}
	}
	return ack
}

// buffer appends installs to their epoch's segments, looked up per run of
// one epoch since a batch may straddle a switch. Installs of an epoch a turn
// took come back late, in segments of their own for the caller to seal and
// hand off: decided under the turn's lock, none lands in a segment already
// handed off.
func (t *epochTable) buffer(items []workItem) (late []segment) {
	var segs []segment
	var cur tstamp.Epoch
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range items {
		if e := items[i].rec.Version.Epoch(); segs == nil || e != cur {
			cur, segs = e, late
			if e >= t.taken {
				segs = t.segments(e)
			} else if late == nil {
				late = t.proc.newSegments()
				segs = late
			}
		}
		t.proc.push(&segs[items[i].shard], &items[i])
	}
	return late
}

// retry buffers a functor whose compute failed into the oldest epoch no
// turn has taken: it is computed again after the next commit.
func (t *epochTable) retry(it *workItem) {
	t.mu.Lock()
	t.proc.push(&t.segments(t.taken)[it.shard], it)
	t.mu.Unlock()
}

func (t *epochTable) segments(e tstamp.Epoch) []segment {
	r := t.at(e)
	if r.segs == nil {
		r.segs = t.proc.newSegments()
	}
	return r.segs
}

// commit records a Committed(e); it is news for the epochs [from, e], none
// when from > e. With no turn running, ok says the caller runs the returned
// one; a running turn takes e in its next. The generator moves past e, so no
// reservation opens in a taken epoch even where the revoke was lost. After a
// failed marker the installs are released here.
func (t *epochTable) commit(e tstamp.Epoch) (from tstamp.Epoch, turn commitTurn, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from = t.want; e < from {
		return from, turn, false
	} else if from == 0 { // the first: the epochs below e committed before the server started
		t.taken, from = e, e
	}
	t.want = e + 1
	t.gen.SetEpoch(e + 1)
	switch {
	case t.committing:
		return from, turn, false
	case t.failed:
		t.proc.discard(t.take().segs)
		return from, turn, false
	}
	t.committing = true
	return from, t.take(), true
}

// take takes every epoch in [taken, want): installs, counts and the acks
// still parked (the switch went on without them under SwitchTimeout).
func (t *epochTable) take() commitTurn {
	turn := commitTurn{from: t.taken, e: t.want - 1}
	for i := range t.recs {
		r := &t.recs[i]
		if e := t.base + tstamp.Epoch(i); e < t.taken || e >= t.want {
			continue
		}
		turn.txns += r.txns
		if turn.segs == nil {
			turn.segs = r.segs
		} else if r.segs != nil {
			for j := range r.segs {
				turn.segs[j].link(&r.segs[j])
			}
			t.proc.recycle(r.segs)
		}
		r.open, r.txns, r.ack, r.segs = 0, 0, nil, nil
	}
	t.taken = t.want
	t.trim()
	return turn
}

// publish makes every epoch up to e readable, sealed and durable.
func (t *epochTable) publish(e tstamp.Epoch) {
	t.mu.Lock()
	t.visible.Store(uint64(tstamp.End(e)))
	close(t.visibleCh)
	t.visibleCh = make(chan struct{})
	t.mu.Unlock()
}

// next ends a turn, or returns the next if a Committed raised the target.
func (t *epochTable) next() (commitTurn, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.want > t.taken {
		return t.take(), true
	}
	t.committing = false
	return commitTurn{}, false
}

// fail ends a turn whose marker failed. A log's write error is sticky, so
// nothing is published any more and no per-epoch state is kept but
// admission: the turn's chunks, those of later epochs taken, the lists go.
func (t *epochTable) fail(turn commitTurn) {
	t.mu.Lock()
	t.failed, t.committing = true, false
	t.proc.discard(turn.segs)
	t.proc.discard(t.take().segs)
	t.mu.Unlock()
	t.dropRetire()
}

// dropRetire drops every retire list.
func (t *epochTable) dropRetire() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.recs {
		t.recs[i].retire = nil
	}
	t.trim()
}

// busy reports a running turn: its epochs may show as committed before their
// segments are linked.
func (t *epochTable) busy() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.committing
}

// file files keys for retirement under epoch e, or the oldest list held if
// e's was handed out: its horizon lies above e all the same.
func (t *epochTable) file(e tstamp.Epoch, keys []kv.Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.failed {
		r := t.at(max(e, t.retired))
		r.retire = append(r.retire, keys...)
	}
}

// retireBelow hands out the oldest retire list below limit, nil at the end.
func (t *epochTable) retireBelow(limit tstamp.Epoch) []kv.Key {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.recs) > 0 && t.base < limit && t.base < t.taken {
		list := t.recs[0].retire
		t.recs[0].retire = nil
		t.retired = t.base + 1
		t.trim() // a taken epoch's record held its list alone
		if len(list) > 0 {
			return list
		}
	}
	t.retired = max(t.retired, limit)
	return nil
}

// stall reports in one snapshot the epochs with open reservations and what
// each buffers, offering each buffered item to consider.
func (t *epochTable) stall(consider func(*workItem)) (inflight []uint64, pending []obs.EpochBuffer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range t.recs {
		e := uint64(t.base) + uint64(i)
		if r.open > 0 {
			inflight = append(inflight, e)
		}
		if r.segs != nil {
			buffered := 0
			for j := range r.segs {
				buffered += r.segs[j].n
				r.segs[j].each(0, consider)
			}
			pending = append(pending, obs.EpochBuffer{Epoch: e, Buffered: buffered})
		}
	}
	return inflight, pending
}
