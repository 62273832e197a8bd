package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/placement"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// detHistoryWrites are the deferred writes of the i-th determinate version
// the frozen-history tests write: the static dependent key "dep:row" (on
// server 1) and nine rows named by i (on server 0), ten as a NewOrder writes.
func detHistoryWrites(i int64) []functor.DependentWrite {
	ws := []functor.DependentWrite{{Key: "dep:row", Value: kv.Value(fmt.Sprintf("written by %d", i))}}
	for j := 1; j <= 9; j++ {
		ws = append(ws, functor.DependentWrite{Key: kv.Key(fmt.Sprintf("line:%d:%d", i, j)), Value: kv.EncodeInt64(i*100 + int64(j))})
	}
	return ws
}

// detHistoryHandler counts its own key up by one and writes
// detHistoryWrites of the count.
func detHistoryHandler(ctx *functor.Context) (*functor.Resolution, error) {
	n := int64(0)
	if r := ctx.Reads[ctx.Key]; r.Found {
		n, _ = kv.DecodeInt64(r.Value)
	}
	n++
	return &functor.Resolution{Kind: functor.Resolved, Value: kv.EncodeInt64(n), DependentWrites: detHistoryWrites(n)}, nil
}

// dropApplies is a network on which server 0's deferred writes to server 1
// are lost while drop is set: a marker there then learns its value only by
// asking for the determinate functor's outcome. intercept, when set, takes
// every other call: pass sends it on, to the server its sender chose or to
// another, and intercept may hold it first or fail it instead.
type dropApplies struct {
	transport.Network
	drop      atomic.Bool
	intercept func(from, to transport.NodeID, req any, pass func(to transport.NodeID) (any, error)) (any, error)
}

type dropAppliesConn struct {
	transport.Conn
	id  transport.NodeID
	net *dropApplies
}

func (n *dropApplies) Node(id transport.NodeID, h transport.Handler) (transport.Conn, error) {
	c, err := n.Network.Node(id, h)
	if err != nil {
		return nil, err
	}
	return &dropAppliesConn{Conn: c, id: id, net: n}, nil
}

func (c *dropAppliesConn) Call(ctx context.Context, to transport.NodeID, req any) (any, error) {
	if _, ok := req.(MsgApplyDeferred); ok && to == 1 && c.net.drop.Load() {
		return nil, errors.New("deferred write dropped")
	}
	if c.net.intercept != nil {
		return c.net.intercept(c.id, to, req, func(to transport.NodeID) (any, error) { return c.Conn.Call(ctx, to, req) })
	}
	return c.Conn.Call(ctx, to, req)
}

// TestFrozenDeterminateHistoryAnswers writes a determinate key's history on
// server 0 — each version with ten deferred writes, the one to server 1's
// static dependent key lost on the way — lets the processor compute and
// freeze it, and then asks what only a determinate functor's outcome can
// answer, of versions that are frozen: a remote FetchEnsure must return the
// dependent writes byte-equal to what the handler wrote, and the markers on
// server 1 must resolve to their written values through it.
func TestFrozenDeterminateHistoryAnswers(t *testing.T) {
	const versions = 24
	reg := functor.NewRegistry()
	reg.MustRegister("det", detHistoryHandler)
	net := &dropApplies{Network: transport.NewMemNetwork()}
	net.drop.Store(true)
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Registry:     reg,
		Workers:      1,
		Network:      net,
		Router: placement.NewStatic(2, func(k kv.Key, n int) int {
			if strings.HasPrefix(string(k), "dep:") {
				return 1
			}
			return 0
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); net.Close() })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var at []tstamp.Timestamp // at[i-1] is the version that counted to i
	for i := 0; i < versions; i++ {
		h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "det:seq", Functor: functor.User("det", nil, nil, functor.WithDependentKeys("dep:row"))}}})
		mustAdvance(t, c)
		at = append(at, h.Version())
	}
	c.DrainProcessors()
	s0, s1 := c.Server(0), c.Server(1)
	hist := s0.store.Chain("det:seq").History()
	if hist.Len() != versions || hist.Frozen() < versions/2 {
		t.Fatalf("det:seq holds %d versions, %d of them frozen; want %d, at least half frozen", hist.Len(), hist.Frozen(), versions)
	}
	if st := s0.store.Stats(); st.FrozenVersions < int64(hist.Frozen()) || st.FrozenBytes == 0 {
		t.Fatalf("server 0 store stats %+v, want the %d frozen versions counted", st, hist.Frozen())
	}
	if sum := summarize(s0.MetricFamilies()); sum.StoreFrozen < float64(hist.Frozen()) || sum.StoreFrozenBytes == 0 {
		t.Fatalf("/debug/obs reports %v frozen versions in %v bytes, want at least %d", sum.StoreFrozen, sum.StoreFrozenBytes, hist.Frozen())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i <= hist.Frozen(); i++ {
		v := at[i-1]
		if rec, ok := s1.store.At("dep:row", v); !ok || rec.Final() {
			t.Fatalf("the marker of dep:row@%v is %v (found %v); the dropped write should have left it unresolved", v, rec, ok)
		}
		res, err := s1.comb.ensure(ctx, 0, "det:seq", v)
		if err != nil {
			t.Fatal(err)
		}
		want := &functor.Resolution{Kind: functor.Resolved, Value: kv.EncodeInt64(int64(i)), DependentWrites: detHistoryWrites(int64(i))}
		if !sameResolution(res, want) {
			t.Fatalf("FetchEnsure(det:seq@%v) = %+v, want %+v", v, res, want)
		}
	}
	// The markers resolve on demand through those frozen outcomes.
	for i := 1; i <= hist.Frozen(); i++ {
		v := at[i-1]
		got, err := s1.read(ctx, "dep:row", v)
		if want := detHistoryWrites(int64(i))[0].Value; err != nil || !got.Found || !bytes.Equal(got.Value, want) {
			t.Fatalf("dep:row at %v = %q found=%v err=%v, want %q", v, got.Value, got.Found, err, want)
		}
	}
}

// sameResolution compares two outcomes byte for byte.
func sameResolution(got, want *functor.Resolution) bool {
	if got == nil || got.Kind != want.Kind || !bytes.Equal(got.Value, want.Value) || got.Reason != want.Reason ||
		len(got.DependentWrites) != len(want.DependentWrites) {
		return false
	}
	for i, w := range want.DependentWrites {
		if g := got.DependentWrites[i]; g.Key != w.Key || !bytes.Equal(g.Value, w.Value) || g.Delete != w.Delete {
			return false
		}
	}
	return true
}

// versionOutcomes is a key's whole history as the store hands it out.
func versionOutcomes(s *mvstore.Store, k kv.Key) ([]tstamp.Timestamp, []*functor.Resolution) {
	var vs []tstamp.Timestamp
	var outs []*functor.Resolution
	for _, rec := range s.View(k) {
		vs = append(vs, rec.Version)
		outs = append(outs, rec.Resolution())
	}
	return vs, outs
}

// TestFrozenHistoryMigrates moves a key whose history the processor froze —
// ADD versions with the odd one aborted, a determinate key's versions with
// their dependent writes — to the other server, and requires the new owner
// to hold the same history, outcome for outcome, and to answer every read
// below it as the old owner did.
func TestFrozenHistoryMigrates(t *testing.T) {
	const versions = 30
	reg := functor.NewRegistry()
	reg.MustRegister("det", detHistoryHandler)
	c, err := NewCluster(ClusterConfig{Servers: 2, ManualEpochs: true, Registry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	add, det := keyOwnedBy(t, 0, 2, "add-"), keyOwnedBy(t, 0, 2, "det-")
	for i := 0; i < versions; i++ {
		fn := functor.Add(1)
		if i%7 == 3 {
			fn = functor.Add(0)
			fn.Arg = []byte{1} // malformed: computing it aborts
		}
		mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: add, Functor: fn}, {Key: det, Functor: functor.User("det", nil, nil)}}})
		mustAdvance(t, c)
	}
	c.DrainProcessors()
	old := c.Server(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type snapshot struct {
		versions []tstamp.Timestamp
		outcomes []*functor.Resolution
		reads    []funcRead
	}
	take := func(s *Server, k kv.Key) snapshot {
		t.Helper()
		var sn snapshot
		sn.versions, sn.outcomes = versionOutcomes(s.store, k)
		for _, v := range sn.versions {
			r, err := s.read(ctx, k, v)
			if err != nil {
				t.Fatal(err)
			}
			sn.reads = append(sn.reads, r)
		}
		return sn
	}
	before := map[kv.Key]snapshot{}
	for _, k := range []kv.Key{add, det} {
		if h := old.store.Chain(k).History(); h.Len() != versions || h.Frozen() < versions/2 {
			t.Fatalf("%q holds %d versions, %d frozen; want %d, at least half frozen", k, h.Len(), h.Frozen(), versions)
		}
		before[k] = take(old, k)
	}

	ticket, err := c.Rebalancer().MoveRange(placement.Range{Start: add, End: add + "\x00"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	if _, err := ticket.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if ticket, err = c.Rebalancer().MoveRange(placement.Range{Start: det, End: det + "\x00"}, 1); err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	if _, err := ticket.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, k := range []kv.Key{add, det} {
		if got := c.Server(0).Owner(k); got != 1 {
			t.Fatalf("%q routes to %d after the move, want 1", k, got)
		}
		after, want := take(c.Server(1), k), before[k]
		if len(after.versions) != len(want.versions) {
			t.Fatalf("%q: the new owner holds %d versions, the old one held %d", k, len(after.versions), len(want.versions))
		}
		for i, v := range want.versions {
			if after.versions[i] != v || !sameResolution(after.outcomes[i], want.outcomes[i]) {
				t.Fatalf("%q@%v: the new owner holds %v %+v, the old one held %+v", k, v, after.versions[i], after.outcomes[i], want.outcomes[i])
			}
			if r, w := after.reads[i], want.reads[i]; r.Found != w.Found || r.Version != w.Version || !bytes.Equal(r.Value, w.Value) {
				t.Fatalf("%q read at %v: the new owner answers %+v, the old one answered %+v", k, v, r, w)
			}
		}
	}
}

// detHistoryCluster starts a manual-epoch cluster of n servers that runs
// detHistoryHandler, with "dep:" keys on server 1 and every other key on
// server 0, over net.
func detHistoryCluster(t *testing.T, n int, net *dropApplies) *Cluster {
	t.Helper()
	reg := functor.NewRegistry()
	reg.MustRegister("det", detHistoryHandler)
	c, err := NewCluster(ClusterConfig{
		Servers:      n,
		ManualEpochs: true,
		Registry:     reg,
		Workers:      1,
		Network:      net,
		Router: placement.NewStatic(n, func(k kv.Key, n int) int {
			if strings.HasPrefix(string(k), "dep:") {
				return 1
			}
			return 0
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); net.Close() })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

// submitDetHistory submits n versions of "det:seq" in the current epoch,
// each declaring "dep:row" its dependent key, and returns their versions:
// the i-th counts to i+1.
func submitDetHistory(t *testing.T, c *Cluster, n int) []tstamp.Timestamp {
	t.Helper()
	var at []tstamp.Timestamp
	for i := 0; i < n; i++ {
		h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "det:seq", Functor: functor.User("det", nil, nil, functor.WithDependentKeys("dep:row"))}}})
		at = append(at, h.Version())
	}
	return at
}

// TestUnlandedWritesStayInFrozenHistory writes a determinate key's history
// on server 0 — each version with ten deferred writes, one of them to the
// static dependent key "dep:row" on another server — in one epoch, lets the
// processor compute, freeze and fold it, and then asks its frozen versions
// for their outcomes. Where every delivery landed, the dependent keys hold
// the writes and a frozen version is its value alone. Where the old owner
// of "dep:row" could not forward the write after a move, the version keeps
// its writes byte for byte, the failure is counted, and the marker resolves
// to its written value through an ensure of the determinate functor. (An
// apply the network drops is TestFrozenDeterminateHistoryAnswers.)
func TestUnlandedWritesStayInFrozenHistory(t *testing.T) {
	const versions = 16
	errDropped := errors.New("deferred write dropped")
	for _, tc := range []struct {
		name string
		// servers, and the one that holds "dep:row" when the functors run
		servers, depOwner int
		// move, when set, moves "dep:" from server 1 to server 2 at the
		// barrier that seals the versions' epoch.
		move      bool
		intercept func(from, to transport.NodeID, req any, pass func(transport.NodeID) (any, error)) (any, error)
		lands     bool
	}{
		{name: "landed", servers: 2, depOwner: 1, lands: true},
		{name: "failed forward after a move", servers: 3, depOwner: 2, move: true,
			// Server 0 sends as under the map before the move, to the old
			// owner, which knows better and forwards; the forward fails.
			intercept: func(from, to transport.NodeID, req any, pass func(transport.NodeID) (any, error)) (any, error) {
				if m, ok := req.(MsgApplyDeferred); ok {
					switch {
					case from == 0 && to == 2 && !m.Fwd:
						return pass(1)
					case from == 1 && to == 2 && m.Fwd:
						return nil, errDropped
					}
				}
				return pass(to)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := detHistoryCluster(t, tc.servers, &dropApplies{Network: transport.NewMemNetwork(), intercept: tc.intercept})
			at := submitDetHistory(t, c, versions)
			var ticket *MoveTicket
			if tc.move {
				var err error
				if ticket, err = c.Rebalancer().MoveRange(placement.Range{Start: "dep:", End: "dep;"}, 2); err != nil {
					t.Fatal(err)
				}
			}
			mustAdvance(t, c)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if ticket != nil {
				if _, err := ticket.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
			c.DrainProcessors()
			s0, dep := c.Server(0), c.Server(tc.depOwner)
			if o := s0.Owner("dep:row"); o != tc.depOwner {
				t.Fatalf("dep:row routes to server %d, want %d", o, tc.depOwner)
			}
			frozen := s0.store.Chain("det:seq").History().Frozen()
			if frozen < versions/2 {
				t.Fatalf("det:seq has %d of its %d versions frozen, want at least half", frozen, versions)
			}
			wantUnlanded := float64(versions)
			if tc.lands {
				wantUnlanded = 0
			}
			if got := summarize(s0.MetricFamilies()).DeferredUnlanded; got != wantUnlanded {
				t.Fatalf("/debug/obs counts %v computations whose writes did not land, want %v", got, wantUnlanded)
			}
			for i := 1; i <= frozen; i++ {
				v := at[i-1]
				rec, ok := dep.store.At("dep:row", v)
				if !ok || rec.Final() != tc.lands {
					t.Fatalf("the marker of dep:row@%v on server %d is %v (found %v), want final %v", v, tc.depOwner, rec, ok, tc.lands)
				}
				res, err := dep.comb.ensure(ctx, 0, "det:seq", v)
				if err != nil {
					t.Fatal(err)
				}
				want := &functor.Resolution{Kind: functor.Resolved, Value: kv.EncodeInt64(int64(i))}
				if !tc.lands {
					want.DependentWrites = detHistoryWrites(int64(i))
				}
				if !sameResolution(res, want) {
					t.Fatalf("FetchEnsure(det:seq@%v) = %+v, want %+v", v, res, want)
				}
			}
			// The markers read their written values: applied, or resolved
			// on demand through the frozen outcomes.
			for i := 1; i <= frozen; i++ {
				v := at[i-1]
				got, err := dep.read(ctx, "dep:row", v)
				if want := detHistoryWrites(int64(i))[0].Value; err != nil || !got.Found || !bytes.Equal(got.Value, want) {
					t.Fatalf("dep:row at %v = %q found=%v err=%v, want %q", v, got.Value, got.Found, err, want)
				}
			}
		})
	}
}

// TestApplyRacingHandoffStaysUnlanded delivers a determinate version's
// deferred write to the old owner of "dep:row" after a move has exported
// the range to server 2 and before it installs the new map, where the
// write reaches a replica whose copy is already taken. The apply must
// report the write unlanded, so the version keeps it when it freezes, and
// server 2's imported marker — held back from resolving until then — must
// read the written value through an ensure of the frozen version.
func TestApplyRacingHandoffStaysUnlanded(t *testing.T) {
	const versions = 8
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var (
		held      atomic.Bool
		inflight  = make(chan struct{}) // server 0's first apply to server 1 is on its way
		release   = make(chan struct{}) // ... may reach server 1
		delivered = make(chan struct{}) // ... and has returned
		frozen    = make(chan struct{}) // server 2's ensures may reach server 0
	)
	wait := func(ch chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	net := &dropApplies{Network: transport.NewMemNetwork(),
		intercept: func(from, to transport.NodeID, req any, pass func(transport.NodeID) (any, error)) (any, error) {
			switch m := req.(type) {
			case MsgApplyDeferred:
				if from == 0 && to == 1 && !m.Fwd && held.CompareAndSwap(false, true) {
					close(inflight)
					if err := wait(release); err != nil {
						return nil, err
					}
					defer close(delivered)
				}
			case MsgFetch:
				if from == 2 && to == 0 {
					if err := wait(frozen); err != nil {
						return nil, err
					}
				}
			}
			return pass(to)
		}}
	c := detHistoryCluster(t, 3, net)
	c.Rebalancer().afterExport = func() {
		close(release)
		_ = wait(delivered)
	}
	at := submitDetHistory(t, c, versions)
	mustAdvance(t, c)
	if err := wait(inflight); err != nil {
		t.Fatal("server 0 never sent its first deferred write: ", err)
	}
	ticket, err := c.Rebalancer().MoveRange(placement.Range{Start: "dep:", End: "dep;"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	if _, err := ticket.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	s0, s2 := c.Server(0), c.Server(2)
	for s0.store.Chain("det:seq").History().Frozen() == 0 {
		if ctx.Err() != nil {
			t.Fatal("det:seq never froze a version")
		}
		time.Sleep(time.Millisecond)
	}
	close(frozen)
	c.DrainProcessors()
	if got := summarize(s0.MetricFamilies()).DeferredUnlanded; got < 1 {
		t.Fatalf("/debug/obs counts %v computations whose writes did not land, want at least 1", got)
	}
	res, err := s2.comb.ensure(ctx, 0, "det:seq", at[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := (&functor.Resolution{Kind: functor.Resolved, Value: kv.EncodeInt64(1), DependentWrites: detHistoryWrites(1)}); !sameResolution(res, want) {
		t.Fatalf("FetchEnsure(det:seq@%v) = %+v, want %+v", at[0], res, want)
	}
	for i, v := range at[:s0.store.Chain("det:seq").History().Frozen()] {
		got, err := s2.read(ctx, "dep:row", v)
		if want := detHistoryWrites(int64(i + 1))[0].Value; err != nil || !got.Found || !bytes.Equal(got.Value, want) {
			t.Fatalf("dep:row at %v on server 2 = %q found=%v err=%v, want %q", v, got.Value, got.Found, err, want)
		}
	}
}
