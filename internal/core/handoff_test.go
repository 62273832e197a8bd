package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

// handoffGate is the test side of the "mix" handler: it counts every call per
// (key, version) and, while a gate is set, parks the call for gatedKey on it —
// which holds the worker that runs it in the middle of its chunk.
type handoffGate struct {
	mu    sync.Mutex
	calls map[pushKey]int
	gate  atomic.Pointer[chan struct{}]
	held  chan struct{} // one token per call parked on the gate
}

const gatedKey = kv.Key("gated")

func newHandoffGate() *handoffGate {
	return &handoffGate{calls: make(map[pushKey]int), held: make(chan struct{}, 1)}
}

// registry holds "mix": value = previous*31 + argument, which is not
// commutative, so functors computed out of version order give another value.
func (g *handoffGate) registry() *functor.Registry {
	r := functor.NewRegistry()
	r.MustRegister("mix", func(ctx *functor.Context) (*functor.Resolution, error) {
		g.mu.Lock()
		g.calls[pushKey{version: ctx.Version, key: ctx.Key}]++
		g.mu.Unlock()
		if ch := g.gate.Load(); ch != nil && ctx.Key == gatedKey {
			select {
			case g.held <- struct{}{}:
			default:
			}
			<-*ch
		}
		prev := int64(0)
		if r := ctx.Reads[ctx.Key]; r.Found {
			prev, _ = kv.DecodeInt64(r.Value)
		}
		arg, _ := kv.DecodeInt64(ctx.Arg)
		return functor.ValueResolution(kv.EncodeInt64(prev*31 + arg)), nil
	})
	return r
}

func (g *handoffGate) shut() {
	ch := make(chan struct{})
	g.gate.Store(&ch)
}

func (g *handoffGate) open() {
	if ch := g.gate.Swap(nil); ch != nil {
		close(*ch)
	}
}

// awaitHeld waits until a call is parked on the gate.
func (g *handoffGate) awaitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-g.held:
	case <-time.After(10 * time.Second):
		t.Fatal("no worker reached the gated functor")
	}
}

// checkFreeList inspects a stopped processor: no chunk left on a shard, and
// every chunk on the free list within the cap and zero in every slot, so that
// it pins no record, chain or key.
func checkFreeList(t *testing.T, s *Server) {
	t.Helper()
	p := s.proc
	for i, sh := range p.shards {
		if sh.queue != (segment{}) || sh.pos != 0 {
			t.Errorf("shard %d is not empty after the drain: queue=%+v pos=%d", i, sh.queue, sh.pos)
		}
	}
	if _, es := s.epochs.records(); len(es) != 0 {
		t.Errorf("%d epochs still buffered after the last commit", len(es))
	}
	n := 0
	for c := p.free; c != nil; c = c.next {
		n++
		if c.n != 0 || c.items != ([_chunkItems]workItem{}) {
			t.Fatalf("free chunk %d is not cleared (n=%d)", n, c.n)
		}
	}
	if n != p.nfree || n == 0 || n > _maxFreeChunks {
		t.Errorf("free list holds %d chunks (counted %d), want 1..%d", n, p.nfree, _maxFreeChunks)
	}
	for _, segs := range p.spareSegs {
		for i := range segs {
			if segs[i] != (segment{}) {
				t.Errorf("spare segment slice still references chunks: %+v", segs[i])
			}
		}
	}
}

// TestHandoffModel drives one back end through a random schedule of installs,
// commits, aborts and imports and compares it with a sequential replay in
// timestamp order: whatever route a functor takes from its install to a
// worker — an epoch's segment, a straggler's segment for the next epoch, the
// late path of an already drained epoch, a queue behind a stuck worker — it is
// computed exactly once and in version order per key.
func TestHandoffModel(t *testing.T) {
	for _, workers := range []int{-1, 1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				runHandoffModel(t, workers, seed)
			})
		}
	}
}

type modelWrite struct {
	version tstamp.Timestamp
	fn      *functor.Functor
	arg     int64
	aborted bool
}

func runHandoffModel(t *testing.T, workers int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g := newHandoffGate()
	c, err := NewCluster(ClusterConfig{Servers: 1, ManualEpochs: true, Registry: g.registry(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s, ctx := c.Server(0), context.Background()

	model := make(map[kv.Key][]*modelWrite)
	var seq uint32
	fresh := 0
	// write draws the next timestamp of epoch e for a write to k.
	write := func(k kv.Key, e tstamp.Epoch) *modelWrite {
		seq++
		w := &modelWrite{version: tstamp.Make(e, seq, 0), arg: rng.Int63n(1000)}
		if k == gatedKey || rng.Intn(10) < 7 {
			w.fn = functor.User("mix", kv.EncodeInt64(w.arg), nil)
		} else {
			w.fn = functor.Add(w.arg)
		}
		model[k] = append(model[k], w)
		return w
	}
	pickKey := func() kv.Key {
		if rng.Intn(2) == 0 {
			return kv.Key(fmt.Sprintf("hot:%d", rng.Intn(4)))
		}
		fresh++
		return kv.Key(fmt.Sprintf("once:%d", fresh))
	}
	// install sends one batch; straddle stamps a third of it into e+1, as a
	// batch that began before an epoch switch and ended in straggler mode.
	// The transactions arrive in random order, so not in version order.
	install := func(e tstamp.Epoch, n int, straddle bool, extra ...kv.Key) []InstallTxn {
		keys := append([]kv.Key(nil), extra...)
		for len(keys) < n {
			keys = append(keys, pickKey())
		}
		txns := make([]InstallTxn, len(keys))
		for i, k := range keys {
			te := e
			if straddle && rng.Intn(3) == 0 {
				te = e + 1
			}
			w := write(k, te)
			txns[i] = InstallTxn{Version: w.version, Writes: []Write{{Key: k, Functor: w.fn}}}
		}
		rng.Shuffle(len(txns), func(i, j int) { txns[i], txns[j] = txns[j], txns[i] })
		resp := s.handleInstall(ctx, MsgInstall{Txns: txns}, nil, false)
		for i, r := range resp.Results {
			if !r.OK {
				t.Fatalf("install %d: %+v", i, r)
			}
		}
		return txns
	}
	// barrier: the committed epoch is published and the processors drained,
	// so nothing of it may be pending.
	barrier := func() {
		if workers < 0 {
			return // nothing computes until a read asks
		}
		c.DrainProcessors()
		e := s.CommittedEpoch()
		for k, ws := range model {
			for _, w := range ws {
				if w.version.Epoch() > e {
					continue
				}
				if rec, ok := s.store.At(k, w.version); !ok || !rec.Final() {
					t.Fatalf("epoch %d committed and drained, yet %s@%v is not final (found=%v)", e, k, w.version, ok)
				}
			}
		}
	}

	shutFor := 0 // rounds the gate stays shut for
	for round := 0; round < 10; round++ {
		e := c.CurrentEpoch()
		for b := 1 + rng.Intn(3); b > 0; b-- {
			txns := install(e, 20+rng.Intn(600), rng.Intn(2) == 0)
			if rng.Intn(2) == 0 {
				// Second round: one transaction of the batch failed elsewhere.
				txn := txns[rng.Intn(len(txns))]
				k := txn.Writes[0].Key
				if err := s.handleAbort(ctx, AbortReq{Version: txn.Version, Keys: []kv.Key{k}}); err != nil {
					t.Fatal(err)
				}
				for _, w := range model[k] {
					if w.version == txn.Version {
						w.aborted = true
					}
				}
			}
		}
		if workers > 0 && shutFor == 0 && round%4 == 1 {
			// Park a worker mid-chunk for the next rounds: their segments
			// queue behind the one it is in.
			g.shut()
			shutFor = 3
			install(e, 100, false, gatedKey)
		}
		mustAdvance(t, c)
		if shutFor == 3 {
			g.awaitHeld(t)
		}
		// Late arrivals: a range import brings unresolved functors of epochs
		// this server has already drained (and, at times, one of the open
		// epoch in the same call), on keys it has not seen.
		if rng.Intn(2) == 0 {
			var keys []mvstore.KeyExport
			for n := 1 + rng.Intn(40); n > 0; n-- {
				fresh++
				ke := mvstore.KeyExport{Key: kv.Key(fmt.Sprintf("late:%d", fresh))}
				for r := 1 + rng.Intn(3); r > 0; r-- {
					w := write(ke.Key, e-tstamp.Epoch(rng.Intn(int(min(e, 2)))))
					ke.Records = append(ke.Records, mvstore.ExportedRecord{Version: w.version, Functor: w.fn})
				}
				if rng.Intn(3) == 0 {
					w := write(ke.Key, e+1)
					ke.Records = append(ke.Records, mvstore.ExportedRecord{Version: w.version, Functor: w.fn})
				}
				sort.Slice(ke.Records, func(i, j int) bool { return ke.Records[i].Version < ke.Records[j].Version })
				keys = append(keys, ke)
			}
			s.handleRangeImport(ctx, MsgRangeImport{Keys: keys, Handoff: e})
		}
		if shutFor > 0 {
			if shutFor--; shutFor == 0 {
				g.open()
			}
		}
		if shutFor == 0 {
			barrier()
		}
	}
	g.open()
	mustAdvance(t, c) // commits what was stamped into the last round's e+1
	barrier()

	// Every read equals the sequential replay; without workers the reads are
	// what computes.
	computed := uint64(0)
	for k, ws := range model {
		sort.Slice(ws, func(i, j int) bool { return ws[i].version < ws[j].version })
		want, found := int64(0), false
		for _, w := range ws {
			if w.aborted {
				continue
			}
			computed++
			found = true
			if w.fn.Type == functor.TypeAdd {
				want += w.arg
			} else {
				want = want*31 + w.arg
			}
		}
		if got, ok := readInt(t, c, 0, k); ok != found || got != want {
			t.Errorf("%s = %d (found=%v), sequential replay gives %d (found=%v)", k, got, ok, want, found)
		}
	}
	g.mu.Lock()
	for k, ws := range model {
		for _, w := range ws {
			want := 1
			if w.aborted || w.fn.Type != functor.TypeUser {
				want = 0
			}
			if calls := g.calls[pushKey{version: w.version, key: k}]; calls != want {
				t.Errorf("%s@%v (aborted=%v): handler ran %d times, want %d", k, w.version, w.aborted, calls, want)
			}
		}
	}
	g.mu.Unlock()
	if got := s.Stats().FunctorsComputed; got != computed {
		t.Errorf("%d functors computed, %d installed and not aborted", got, computed)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	checkFreeList(t, s)
}

// TestStallCaptureNamesInFlightFunctor: the functor a worker is stuck on is
// the one a stall snapshot exists to name. It is in the batch the worker is
// computing, so the snapshot has to see into that batch, and count it.
func TestStallCaptureNamesInFlightFunctor(t *testing.T) {
	g := newHandoffGate()
	c, err := NewCluster(ClusterConfig{Servers: 1, ManualEpochs: true, Registry: g.registry(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer g.open()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s, ctx := c.Server(0), context.Background()
	adds := func(prefix string, n int) []Txn {
		txns := make([]Txn, n)
		for i := range txns {
			txns[i] = Txn{Writes: []Write{{Key: kv.Key(fmt.Sprintf("%s:%d", prefix, i)), Functor: functor.Add(1)}}}
		}
		return txns
	}
	submit := func(txns []Txn) {
		t.Helper()
		if _, _, err := s.SubmitBatch(ctx, txns); err != nil {
			t.Fatal(err)
		}
	}

	// Epoch 1 holds the gated functor alone, so the worker that takes it is
	// stuck on the first item of its batch; epoch 2's functors are computed
	// on the other shard and queue behind it on this one; epoch 3 stays open.
	g.shut()
	gated := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: gatedKey, Functor: functor.User("mix", kv.EncodeInt64(1), nil)}}})
	held := time.Now()
	mustAdvance(t, c)
	g.awaitHeld(t)
	const queued, open = 300, 40
	submit(adds("queued", queued))
	mustAdvance(t, c)
	submit(adds("open", open))

	var snap = s.StallCapture(ctx)
	sum := func() (n int) {
		for _, d := range snap.ProcessorQueues {
			n += d
		}
		return n
	}
	// The free shard is still computing its share of epoch 2: once it is
	// through, what is queued is what is installed and not computed.
	for deadline := time.Now().Add(10 * time.Second); ; snap = s.StallCapture(ctx) {
		if pending := 1 + queued - int(s.Stats().FunctorsComputed); sum() == pending && pending < 1+queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ProcessorQueues = %v (sum %d), want installed - computed = %d", snap.ProcessorQueues, sum(), 1+queued-int(s.Stats().FunctorsComputed))
		}
		time.Sleep(time.Millisecond)
	}
	heldFor := time.Since(held)
	snap = s.StallCapture(ctx)
	if o := snap.OldestPending; o == nil || o.Key != string(gatedKey) || o.FType != "USER" || o.Version != uint64(gated.Version()) || o.QueueWait < heldFor {
		t.Errorf("oldest pending functor = %+v, want %s@%d USER waiting >= %v", o, gatedKey, gated.Version(), heldFor)
	}
	if len(snap.PendingEpochs) != 1 || snap.PendingEpochs[0].Epoch != 3 || snap.PendingEpochs[0].Buffered != open {
		t.Errorf("PendingEpochs = %+v, want epoch 3 with %d buffered installs", snap.PendingEpochs, open)
	}
}
