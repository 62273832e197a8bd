package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

// TestEpochModel drives two epoch tables alone — no Server, no transport —
// and a tiny epoch manager through every interleaving of the events that
// meet in them over three epochs, deduplicating states:
//
//   - a client on server 0 makes two reservations, which may be open at
//     once; reservation k installs on server k, in the epoch it reserved (a
//     straggler reserved after the revoke installs in e+1), and releases;
//   - the manager revokes the epoch from each server, waits for both acks
//     or times out, and sends Committed(e), which each server receives in
//     any order, and again at any time after;
//   - a server runs each commit turn as one step after the take: seal,
//     marker, publish, hand-off, retirement at retention 1, and the next
//     turn if a Committed raised the target meanwhile;
//   - one fault per run, anywhere: a switch times out, a Committed is
//     dropped, a marker fails, or a worker fails to compute an item and it
//     is retried.
//
// After every event it checks epoch-atomic visibility (every item of an
// epoch below the visible bound is sealed), observable ⇒ durable (nothing is
// published after a failed marker), acks (an ack the manager waits for
// comes only after the epoch's last release), hand-off (an item's hand-offs
// plus its copies still buffered are one plus its retries, and at the end
// an item of a taken epoch that was never retried was handed off once),
// retirement (a list is compacted only once the horizon passes the epochs
// of its keys) and bounded state (a taken epoch's record holds its retire
// list alone, and the window starts at one).
func TestEpochModel(t *testing.T) {
	m := &epochModel{t: t, p: &processor{}, store: mvstore.New(), seen: map[uint64]struct{}{}}
	m.visit(m.initial(), nil)
	t.Logf("%d states explored, %d of them terminal", len(m.seen), m.terminal)
	if m.terminal == 0 {
		t.Fatal("no terminal state reached")
	}
}

const (
	modelEpochs  = 3 // the manager switches epochs 1..3
	modelItems   = 2 // reservations the client makes, and items they install
	modelHorizon = 1 // retention in epochs
)

// modelAck is every parked ack: the model knows which epoch an ack is for
// from the call that returned it.
var modelAck = func() {}

type epochModel struct {
	t        *testing.T
	p        *processor // shared by every table: chunks recycle as the search backtracks
	store    *mvstore.Store
	recs     [modelItems][modelEpochs + 2]*mvstore.Record
	chains   [modelItems]*mvstore.Chain
	seen     map[uint64]struct{}
	terminal int
}

// item returns the work item of reservation n installing in epoch e.
func (m *epochModel) item(n int, e tstamp.Epoch) workItem {
	k := itemKey(n)
	if m.recs[n][e] == nil {
		c, r, err := m.store.Stage(k, tstamp.Make(e, 1, 0), functor.Add(1))
		if err != nil {
			m.t.Fatal(err)
		}
		m.chains[n], m.recs[n][e] = c, r
	}
	return workItem{key: k, chain: m.chains[n], rec: m.recs[n][e]}
}

// itemKey is the key reservation n installs; keyNo is the reservation of a
// key, and itemNo of an item.
func itemKey(n int) kv.Key { return kv.Key(fmt.Sprint("item", n)) }

func keyNo(k kv.Key) int { return int(k[len(k)-1] - '0') }

func itemNo(it *workItem) int { return keyNo(it.key) }

// resv is the client's reservation n, and what the model knows of the item
// it installs on server n.
type resv struct {
	made, open, installed bool
	e                     tstamp.Epoch
	sealed                bool
	handoffs, retries     int
}

type modelServer struct {
	t      *epochTable
	inbox  [modelEpochs + 1]uint8 // Committed(e): 0 unsent, 1 sent, 2 delivered, 3 dropped
	turn   *commitTurn            // the running commit turn, nil between turns
	failed bool
	shown  tstamp.Epoch // visible bound when the marker failed
}

type modelWorld struct {
	srv       [2]*modelServer
	res       [modelItems]resv
	cur       tstamp.Epoch // the epoch the manager runs or switches
	switching bool
	revoked   [2]bool
	acked     [2]bool
	fault     uint8 // the run's one fault, once it happened
}

const (
	noFault = iota
	timeoutFault
	dropFault
	markerFault
	retryFault
)

func (m *epochModel) initial() *modelWorld {
	w := &modelWorld{cur: 1}
	for i := range w.srv {
		s := &modelServer{t: newEpochTable(tstamp.NewGenerator(uint16(i)), m.p)}
		// The manager's Start: Committed(0), Grant(1).
		if _, turn, ok := s.t.commit(0); !ok || turn.segs != nil {
			m.t.Fatal("Committed(0) on a fresh table ran no empty turn")
		}
		s.t.publish(0)
		if _, ok := s.t.next(); ok {
			m.t.Fatal("a second turn after Committed(0)")
		}
		s.t.grant(1)
		w.srv[i] = s
	}
	return w
}

func (m *epochModel) cloneSegs(segs []segment) []segment {
	if segs == nil {
		return nil
	}
	out := m.p.newSegments()
	for i := range segs {
		segs[i].each(0, func(it *workItem) { m.p.push(&out[i], it) })
	}
	return out
}

func (m *epochModel) clone(w *modelWorld) *modelWorld {
	c := *w
	for i, s := range w.srv {
		cs := *s
		t := newEpochTable(tstamp.NewGenerator(uint16(i)), m.p)
		t.gen.SetEpoch(s.t.gen.Epoch())
		t.base, t.taken, t.want, t.retired = s.t.base, s.t.taken, s.t.want, s.t.retired
		t.committing, t.failed = s.t.committing, s.t.failed
		t.visible.Store(s.t.visible.Load())
		t.recs = make([]epochRec, len(s.t.recs))
		for j, r := range s.t.recs {
			t.recs[j] = epochRec{open: r.open, txns: r.txns, ack: r.ack, retire: slices.Clone(r.retire), segs: m.cloneSegs(r.segs)}
		}
		cs.t = t
		if s.turn != nil {
			cs.turn = &commitTurn{e: s.turn.e, txns: s.turn.txns, segs: m.cloneSegs(s.turn.segs)}
		}
		c.srv[i] = &cs
	}
	return &c
}

// release returns a world's chunks to the shared free list.
func (m *epochModel) release(w *modelWorld) {
	for _, s := range w.srv {
		for j := range s.t.recs {
			m.p.discard(s.t.recs[j].segs)
		}
		if s.turn != nil {
			m.p.discard(s.turn.segs)
		}
	}
}

// stateHash folds a state into 64 bits.
type stateHash uint64

func (h *stateHash) add(vs ...uint64) {
	for _, v := range vs {
		x := (uint64(*h) ^ v) * 0x9e3779b97f4a7c15
		*h = stateHash(x ^ x>>31)
	}
}

func (h *stateHash) segs(segs []segment) {
	h.add(uint64(len(segs)))
	for i := range segs {
		segs[i].each(0, func(it *workItem) { h.add(uint64(itemNo(it)), uint64(it.rec.Version)) })
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (m *epochModel) key(w *modelWorld) uint64 {
	var h stateHash
	h.add(uint64(w.cur), b2u(w.switching), b2u(w.revoked[0]), b2u(w.revoked[1]), b2u(w.acked[0]), b2u(w.acked[1]), uint64(w.fault))
	for _, r := range w.res {
		h.add(b2u(r.made), b2u(r.open), b2u(r.installed), uint64(r.e), b2u(r.sealed), uint64(r.handoffs), uint64(r.retries))
	}
	for _, s := range w.srv {
		t := s.t
		for _, in := range s.inbox {
			h.add(uint64(in))
		}
		h.add(b2u(s.failed), uint64(s.shown), uint64(t.gen.Epoch()), uint64(t.base), uint64(t.taken), uint64(t.want),
			uint64(t.retired), b2u(t.committing), b2u(t.failed), t.visible.Load(), b2u(s.turn != nil))
		if s.turn != nil {
			h.add(uint64(s.turn.e), s.turn.txns)
			h.segs(s.turn.segs)
		}
		h.add(uint64(len(t.recs)))
		for _, r := range t.recs {
			h.add(uint64(r.open), r.txns, b2u(r.ack != nil), uint64(len(r.retire)))
			h.segs(r.segs)
			for _, k := range r.retire {
				h.add(uint64(keyNo(k)))
			}
		}
	}
	return uint64(h)
}

// step is one event of the path to a state, kept to print a failing path.
type step struct {
	prev *step
	ev   *event
}

func (s *step) String() string {
	var evs []string
	for ; s != nil; s = s.prev {
		evs = append(evs, fmt.Sprint(s.ev.name, s.ev.arg))
	}
	slices.Reverse(evs)
	return strings.Join(evs, " ")
}

// event is one enabled event: its name, its argument (a reservation, a
// server, an epoch, or server i's epoch e as 10i+e) and what it does to a
// clone.
type event struct {
	name  string
	arg   int
	again bool // a Committed delivered before: the run can end without it
	do    func(w *modelWorld) error
}

func (m *epochModel) visit(w *modelWorld, path *step) {
	evs := m.events(w)
	if !slices.ContainsFunc(evs, func(ev event) bool { return !ev.again }) {
		m.terminal++
		if err := m.final(w); err != nil {
			m.t.Fatalf("after %v: %v", path, err)
		}
		return
	}
	for i := range evs {
		ev := &evs[i]
		c := m.clone(w)
		p := &step{prev: path, ev: ev}
		err := ev.do(c)
		if err == nil {
			err = m.check(c)
		}
		if err != nil {
			m.t.Fatalf("after %v: %v", p, err)
		}
		if k := m.key(c); !contains(m.seen, k) {
			m.seen[k] = struct{}{}
			m.visit(c, p)
		}
		m.release(c)
	}
}

func contains(set map[uint64]struct{}, k uint64) bool {
	_, ok := set[k]
	return ok
}

func (m *epochModel) events(w *modelWorld) []event {
	var evs []event
	on := func(name string, arg int, do func(w *modelWorld) error) {
		evs = append(evs, event{name: name, arg: arg, do: do})
	}
	fault := func(f uint8, name string, arg int, do func(w *modelWorld) error) {
		if w.fault == noFault {
			on(name, arg, func(w *modelWorld) error { w.fault = f; return do(w) })
		}
	}
	if !w.switching && w.cur <= modelEpochs {
		on("switch", int(w.cur), func(w *modelWorld) error { w.switching = true; return nil })
	}
	if w.switching {
		fault(timeoutFault, "timeout", int(w.cur), m.send)
	}
	for n, r := range w.res {
		n, r := n, r
		switch {
		case !r.made:
			on("reserve", n, func(w *modelWorld) error {
				e, err := w.srv[0].t.begin(1)
				w.res[n] = resv{made: true, open: true, e: e}
				return err
			})
		case r.open && !r.installed:
			on("install", n, func(w *modelWorld) error { return m.install(w, n) })
		case r.open:
			on("release", n, func(w *modelWorld) error {
				w.res[n].open = false
				return m.ack(w, 0, r.e, w.srv[0].t.end(r.e))
			})
		}
		if r.handoffs > r.retries {
			// A worker fails to compute the item: it is buffered again for
			// the next commit.
			fault(retryFault, "retry", n, func(w *modelWorld) error {
				w.res[n].retries++
				it := m.item(n, r.e)
				it.retried = true
				w.srv[n].t.retry(&it)
				return nil
			})
		}
	}
	for i, s := range w.srv {
		i, s := i, s
		if w.switching && !w.revoked[i] {
			on("revoke", i, func(w *modelWorld) error {
				w.revoked[i] = true
				return m.ack(w, i, w.cur, w.srv[i].t.revoke(w.cur, modelAck))
			})
		}
		for e, in := range s.inbox {
			e := tstamp.Epoch(e)
			switch in {
			case 1:
				on("committed", 10*i+int(e), func(w *modelWorld) error {
					w.srv[i].inbox[e] = 2
					return m.commit(w, i, e)
				})
				fault(dropFault, "drop", 10*i+int(e), func(w *modelWorld) error {
					w.srv[i].inbox[e] = 3
					return nil
				})
			case 2:
				on("again", 10*i+int(e), func(w *modelWorld) error { return m.commit(w, i, e) })
				evs[len(evs)-1].again = true
			}
		}
		if s.turn != nil {
			on("durable", i, func(w *modelWorld) error { return m.durable(w, i) })
			fault(markerFault, "markerfail", i, func(w *modelWorld) error {
				s := w.srv[i]
				m.seal(w, s)
				s.t.fail(*s.turn)
				s.turn, s.failed, s.shown = nil, true, tstamp.Timestamp(s.t.visible.Load()).Epoch()
				return nil
			})
		}
	}
	return evs
}

// ack takes the ack a table call returned for server i's epoch e.
func (m *epochModel) ack(w *modelWorld, i int, e tstamp.Epoch, ack func()) error {
	if ack == nil || !w.switching || e != w.cur || w.acked[i] {
		return nil // no ack, or one the manager no longer waits for
	}
	for n, r := range w.res {
		if i == 0 && r.open && r.e == e {
			return fmt.Errorf("server %d acked epoch %d with reservation %d open", i, e, n)
		}
	}
	w.acked[i] = true
	if w.acked[0] && w.acked[1] {
		return m.send(w)
	}
	return nil
}

// send is the manager's Committed(cur) broadcast: after both acks or on a
// timeout.
func (m *epochModel) send(w *modelWorld) error {
	for _, s := range w.srv {
		s.inbox[w.cur] = 1
	}
	w.cur++
	w.switching, w.revoked, w.acked = false, [2]bool{}, [2]bool{}
	return nil
}

// install buffers reservation n's item on server n; one of an epoch the
// server's turns have taken already is late: sealed, filed and handed off
// at once. Only a switch that went on without the install's ack
// (SwitchTimeout) lets it come back late: the late path seals into an epoch
// readers may already have seen complete.
func (m *epochModel) install(w *modelWorld, n int) error {
	r, t := &w.res[n], w.srv[n].t
	r.installed = true
	late := t.buffer([]workItem{m.item(n, r.e)})
	if late != nil {
		if w.fault != timeoutFault {
			return fmt.Errorf("server %d: the install of item %d in epoch %d came back late without a switch timeout", n, n, r.e)
		}
		r.sealed = true
		r.handoffs++
		t.file(r.e, []kv.Key{itemKey(n)})
		m.p.discard(late)
	}
	return nil
}

func (m *epochModel) commit(w *modelWorld, i int, e tstamp.Epoch) error {
	s := w.srv[i]
	_, turn, ok := s.t.commit(e)
	if !ok {
		return nil
	}
	if s.turn != nil || s.failed {
		return fmt.Errorf("server %d: a second turn runs", i)
	}
	s.turn = &turn
	return nil
}

// seal seals the running turn's items and files their keys, as the server
// does before its marker.
func (m *epochModel) seal(w *modelWorld, s *modelServer) {
	var keys []kv.Key
	for i := range s.turn.segs {
		s.turn.segs[i].each(0, func(it *workItem) {
			w.res[itemNo(it)].sealed = true
			keys = append(keys, it.key)
		})
	}
	if keys != nil {
		s.t.file(s.turn.e, keys)
	}
}

// durable is a turn whose marker succeeded: sealed, published, handed off
// and retired, and the next turn taken if a Committed raised the target.
func (m *epochModel) durable(w *modelWorld, i int) error {
	s := w.srv[i]
	m.seal(w, s)
	s.t.publish(s.turn.e)
	for j := range s.turn.segs {
		s.turn.segs[j].each(0, func(it *workItem) { w.res[itemNo(it)].handoffs++ })
	}
	m.p.discard(s.turn.segs)
	if e := s.turn.e; e > modelHorizon {
		limit := e - modelHorizon
		for list := s.t.retireBelow(limit); list != nil; list = s.t.retireBelow(limit) {
			for _, k := range list {
				if n := keyNo(k); w.res[n].e >= limit {
					return fmt.Errorf("server %d compacted item %d of epoch %d at horizon %d", i, n, w.res[n].e, limit)
				}
			}
		}
	}
	s.turn = nil
	if turn, ok := s.t.next(); ok {
		s.turn = &turn
	}
	return nil
}

// check is run after every event.
func (m *epochModel) check(w *modelWorld) error {
	for i, s := range w.srv {
		t := s.t
		shown := tstamp.Timestamp(t.visible.Load()).Epoch()
		if s.failed && shown != s.shown {
			return fmt.Errorf("server %d published up to epoch %d after its marker failed at %d", i, shown, s.shown)
		}
		var buffered [modelItems]int
		count := func(segs []segment) {
			for j := range segs {
				segs[j].each(0, func(it *workItem) { buffered[itemNo(it)]++ })
			}
		}
		for j, r := range t.recs {
			e := t.base + tstamp.Epoch(j)
			if e < t.taken && (r.open != 0 || r.txns != 0 || r.ack != nil || r.segs != nil) {
				return fmt.Errorf("server %d keeps more than a retire list for epoch %d below the frontier %d: %+v", i, e, t.taken, r)
			}
			if s.failed && r.retire != nil {
				return fmt.Errorf("server %d keeps a retire list of epoch %d after its marker failed", i, e)
			}
			count(r.segs)
		}
		if len(t.recs) > 0 && t.recs[0].retire == nil && t.base < t.taken {
			return fmt.Errorf("server %d: window starts at epoch %d, which holds nothing", i, t.base)
		}
		if n := len(t.recs); n > 0 && t.base+tstamp.Epoch(n) > w.cur+2 {
			return fmt.Errorf("server %d: window reaches epoch %d, manager at %d", i, t.base+tstamp.Epoch(n)-1, w.cur)
		}
		if s.turn != nil {
			count(s.turn.segs)
		}
		r := w.res[i]
		if !r.installed {
			continue
		}
		if r.e < shown && !r.sealed {
			return fmt.Errorf("server %d published epoch %d before sealing item %d of epoch %d", i, shown-1, i, r.e)
		}
		if !s.failed && r.handoffs+buffered[i] != 1+r.retries {
			return fmt.Errorf("server %d: item %d handed off %d times, buffered %d, retried %d", i, i, r.handoffs, buffered[i], r.retries)
		}
	}
	return nil
}

// final is run where nothing more can happen: an item of an epoch a turn
// took, never retried, was handed off once.
func (m *epochModel) final(w *modelWorld) error {
	for n, r := range w.res {
		s := w.srv[n]
		if r.installed && !s.failed && r.e < s.t.taken && r.retries == 0 && r.handoffs != 1 {
			return fmt.Errorf("server %d: item %d of taken epoch %d handed off %d times", n, n, r.e, r.handoffs)
		}
	}
	return nil
}
