package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
	"alohadb/internal/wal"
)

// The model test drives two clusters in lockstep through one random
// schedule: "retained" retires versions through its per-epoch lists,
// "reference" keeps everything. Epochs are manual and the driver is one
// goroutine, so both assign the same timestamps; whatever the processors'
// timing, serializability makes every read a function of the schedule.
//
// Two properties are checked. Reads: at every snapshot the retained cluster
// still promises — the horizon and above — both clusters return the same.
// Retirement: once the schedule has quiesced and retention + 1 further
// epochs have committed, the full-store sweep the lists replaced
// (Store.Compact at the horizon) finds nothing left to remove on any
// server, i.e. the lists dropped exactly what a sweep per epoch would have.

const modelServers = 2

// twin is one of the two clusters.
type twin struct {
	t         *testing.T
	name      string
	dir       string
	retention tstamp.Epoch // in force; zero on the reference
	c         *core.Cluster
	net       *transport.MemNetwork
	inj       transport.Conn // a node of its own, to deliver late installs
	logs      []*wal.Log
	gate      <-chan struct{}
}

// modelRegistry builds one twin's handlers; gate is shared by both twins.
func modelRegistry(gate <-chan struct{}) *functor.Registry {
	r := functor.NewRegistry()
	// det counts on its own key and defers a write: to the key its argument
	// names — "S|key", declared up front, so a marker waits there, or
	// "F|key", not declared, so each write is a new version of key — or to
	// a row named after the count ("D|prefix", created when the write lands).
	r.MustRegister("det", func(ctx *functor.Context) (*functor.Resolution, error) {
		n := int64(1)
		if prev := ctx.Reads[ctx.Key]; prev.Found {
			p, _ := kv.DecodeInt64(prev.Value)
			n = p + 1
		}
		mode, name, _ := strings.Cut(string(ctx.Arg), "|")
		if mode == "D" {
			name += strconv.FormatInt(n, 10)
		}
		return &functor.Resolution{
			Kind:            functor.Resolved,
			Value:           kv.EncodeInt64(n),
			DependentWrites: []functor.DependentWrite{{Key: kv.Key(name), Value: kv.EncodeInt64(10 * n)}},
		}, nil
	})
	r.MustRegister("abort", func(*functor.Context) (*functor.Resolution, error) {
		return functor.AbortResolution("model abort"), nil
	})
	// gate holds the worker that computes it until the test opens the gate:
	// everything queued behind it falls epochs behind.
	r.MustRegister("gate", func(*functor.Context) (*functor.Resolution, error) {
		<-gate
		return functor.ValueResolution(kv.EncodeInt64(0)), nil
	})
	return r
}

// start boots the twin, on recovered stores after a restart.
func (tw *twin) start(stores []*mvstore.Store, startEpoch tstamp.Epoch) {
	tw.t.Helper()
	tw.net = transport.NewMemNetwork()
	tw.logs = nil
	c, err := core.NewCluster(core.ClusterConfig{
		Servers:      modelServers,
		ManualEpochs: true,
		Workers:      2,
		Registry:     modelRegistry(tw.gate),
		Network:      tw.net,
		Stores:       stores,
		StartEpoch:   startEpoch,
		DurabilityFactory: func(id int) (core.DurabilityHook, error) {
			l, err := wal.Open(wal.LogPath(tw.dir, id))
			if err == nil {
				tw.logs = append(tw.logs, l)
			}
			return l, err
		},
	})
	if err != nil {
		tw.t.Fatal(err)
	}
	tw.c = c
	c.SetRetention(tw.retention)
	if err := c.Start(); err != nil {
		tw.t.Fatal(err)
	}
	tw.inj, err = tw.net.Node(transport.NodeID(modelServers+7), func(context.Context, transport.NodeID, any) (any, error) {
		return nil, nil
	})
	if err != nil {
		tw.t.Fatal(err)
	}
}

func (tw *twin) stop() {
	tw.c.Close()
	for _, l := range tw.logs {
		l.Close()
	}
	tw.net.Close()
}

func (tw *twin) committed() tstamp.Epoch { return tw.c.Server(0).CommittedEpoch() }

func (tw *twin) advance() {
	tw.t.Helper()
	if _, err := tw.c.AdvanceEpoch(); err != nil {
		tw.t.Fatal(err)
	}
}

// modelOp is one transaction of the schedule; txn builds it afresh for each
// twin so the two share no functor.
type modelOp struct {
	fe       int
	kind     string
	key, aux kv.Key
	n        int64
}

func (o modelOp) txn() core.Txn {
	switch o.kind {
	case "add":
		return core.Txn{Writes: []core.Write{{Key: o.key, Functor: functor.Add(o.n)}}}
	case "add2":
		return core.Txn{Writes: []core.Write{
			{Key: o.key, Functor: functor.Add(o.n)},
			{Key: o.aux, Functor: functor.Add(-o.n)},
		}}
	case "value":
		return core.Txn{Writes: []core.Write{{Key: o.key, Functor: functor.Value(kv.EncodeInt64(o.n))}}}
	case "delete":
		return core.Txn{Writes: []core.Write{{Key: o.key, Functor: functor.Deleted()}}}
	case "abort1": // phase 1 fails on the missing key: second-round abort
		return core.Txn{
			Writes:   []core.Write{{Key: o.key, Functor: functor.Value(kv.EncodeInt64(-1))}},
			Requires: []kv.Key{"missing"},
		}
	case "abort2": // aborts when computed
		return core.Txn{Writes: []core.Write{{Key: o.key, Functor: functor.User("abort", nil, nil)}}}
	case "det-static":
		return core.Txn{Writes: []core.Write{{
			Key:     o.key,
			Functor: functor.User("det", []byte("S|"+string(o.aux)), nil, functor.WithDependentKeys(o.aux)),
		}}}
	case "det-dynamic":
		return core.Txn{Writes: []core.Write{{Key: o.key, Functor: functor.User("det", []byte("D|"+string(o.aux)), nil)}}}
	case "det-fixed":
		return core.Txn{Writes: []core.Write{{Key: o.key, Functor: functor.User("det", []byte("F|"+string(o.aux)), nil)}}}
	case "gate":
		return core.Txn{Writes: []core.Write{{Key: o.key, Functor: functor.User("gate", nil, nil)}}}
	}
	panic("unknown op " + o.kind)
}

func TestIncrementalRetirementEqualsSweep(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runRetirementModel(t, seed) })
	}
}

func runRetirementModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	gate := make(chan struct{})
	gated := false
	openGate := func() {
		if gated {
			close(gate)
			gated = false
		}
	}
	retained := &twin{t: t, name: "retained", dir: t.TempDir(), retention: 4, gate: gate}
	reference := &twin{t: t, name: "reference", dir: t.TempDir(), gate: gate}
	twins := []*twin{retained, reference}
	for _, tw := range twins {
		tw.start(nil, 0)
	}
	defer func() {
		openGate() // or the workers never stop
		for _, tw := range twins {
			tw.stop()
		}
	}()

	hot := []kv.Key{"hot:0", "hot:1", "hot:2", "hot:3"}
	dets := []kv.Key{"det:0", "det:1"}
	keys := map[kv.Key]bool{}
	for _, k := range append(append([]kv.Key{}, hot...), dets...) {
		keys[k] = true
	}
	var cold []kv.Key

	submit := func(o modelOp) {
		t.Helper()
		for _, tw := range twins {
			if _, err := tw.c.Server(o.fe).Submit(ctx, o.txn()); err != nil {
				t.Fatalf("%s: submit %s: %v", tw.name, o.kind, err)
			}
		}
	}
	randomOps := func() {
		for i, n := 0, 20+rng.Intn(40); i < n; i++ {
			o := modelOp{fe: rng.Intn(modelServers), n: int64(1 + rng.Intn(9))}
			switch p := rng.Intn(100); {
			case p < 45:
				o.kind, o.key = "add", hot[rng.Intn(len(hot))]
			case p < 55:
				o.kind, o.key, o.aux = "add2", hot[0], hot[1+rng.Intn(len(hot)-1)]
			case p < 75: // a key written once
				o.kind, o.key = "value", kv.Key(fmt.Sprintf("cold:%d", len(cold)))
				cold = append(cold, o.key)
				keys[o.key] = true
			case p < 80 && len(cold) > 0:
				o.kind, o.key = []string{"value", "delete", "add"}[rng.Intn(3)], cold[rng.Intn(len(cold))]
			case p < 86:
				o.kind, o.key = "abort1", hot[rng.Intn(len(hot))]
			case p < 92:
				o.kind, o.key = "abort2", hot[rng.Intn(len(hot))]
			case p < 95:
				d := rng.Intn(len(dets))
				o.kind, o.key, o.aux = "det-static", dets[d], kv.Key(fmt.Sprintf("dep:%d", d))
				keys[o.aux] = true
			case p < 98:
				d := rng.Intn(len(dets))
				o.kind, o.key, o.aux = "det-fixed", dets[d], kv.Key(fmt.Sprintf("acc:%d", d))
				keys[o.aux] = true
			default:
				d := rng.Intn(len(dets))
				o.kind, o.key, o.aux = "det-dynamic", dets[d], kv.Key(fmt.Sprintf("dyn:%d:", d))
				for n := 1; n <= 96; n++ { // every row the count may name
					keys[kv.Key(string(o.aux)+strconv.Itoa(n))] = true
				}
			}
			submit(o)
		}
	}
	// burst writes key a few times: with bursts in two epochs and nothing
	// after, the key's history can only retire through whichever mechanism
	// the burst was timed for.
	burst := func(k kv.Key) {
		keys[k] = true
		for i := 0; i < 3; i++ {
			submit(modelOp{fe: i % modelServers, kind: "add", key: k, n: 1})
		}
	}
	drain := func() {
		if gated {
			t.Fatal("drain while the gate is shut")
		}
		for _, tw := range twins {
			tw.c.DrainProcessors()
		}
	}

	// intact is the oldest epoch whose history the retained twin still
	// holds in full: every horizon a commit has used so far is below it.
	var intact tstamp.Epoch
	advance := func() {
		t.Helper()
		for _, tw := range twins {
			tw.advance()
		}
		e, r := retained.committed(), retained.retention
		if r != 0 && e > r {
			intact = max(intact, e-r)
		}
		for i := 0; i < modelServers; i++ {
			if n := retained.c.Server(i).RetireLists(); n > int(r)+2 || (r == 0 && n > 0) {
				t.Fatalf("epoch %d: server %d holds %d retirement lists with retention %d", e, i, n, r)
			}
		}
	}
	// sameReads compares the twins at the end of every epoch the retained
	// twin still promises, and at the horizon itself.
	sameReads := func(when string) {
		t.Helper()
		drain() // rows that deferred writes create appear when computed
		e := retained.committed()
		if ref := reference.committed(); ref != e {
			t.Fatalf("%s: twins at epochs %d and %d", when, e, ref)
		}
		snaps := []tstamp.Timestamp{tstamp.Start(intact)}
		for s := intact; s <= e; s++ {
			snaps = append(snaps, tstamp.End(s).Prev())
		}
		for k := range keys {
			for _, snap := range snaps {
				fe := rng.Intn(modelServers)
				got, gotOK, err := retained.c.Server(fe).GetAt(ctx, k, snap)
				if err != nil {
					t.Fatalf("%s: retained read %s@%v: %v", when, k, snap, err)
				}
				want, wantOK, err := reference.c.Server(fe).GetAt(ctx, k, snap)
				if err != nil {
					t.Fatalf("%s: reference read %s@%v: %v", when, k, snap, err)
				}
				if gotOK != wantOK || string(got) != string(want) {
					t.Fatalf("%s: %s@%v = %x found=%v with retention, %x found=%v without (horizon epoch %d, committed %d)",
						when, k, snap, got, gotOK, want, wantOK, intact, e)
				}
			}
		}
	}
	setRetention := func(r tstamp.Epoch) {
		retained.retention = r
		retained.c.SetRetention(r)
	}
	// straggle delivers an install stamped in the epoch that has just
	// committed, below everything that epoch sealed on the key: it is
	// sealed on arrival and merges under sealed records. Processors are
	// drained first, so in both twins the versions above it are computed
	// and stay as they are.
	straggle := func(k kv.Key) {
		t.Helper()
		drain()
		for _, tw := range twins {
			v := tstamp.Make(tw.committed(), 0, 5)
			owner := tw.c.Server(0).Owner(k)
			resp, err := tw.inj.Call(ctx, transport.NodeID(owner), core.MsgInstall{Txns: []core.InstallTxn{{
				Version: v,
				Writes:  []core.Write{{Key: k, Functor: functor.Add(100)}},
			}}})
			if err != nil {
				t.Fatalf("%s: late install: %v", tw.name, err)
			}
			if r := resp.(core.MsgInstallResp).Results[0]; !r.OK {
				t.Fatalf("%s: late install refused: %s", tw.name, r.Err)
			}
		}
		keys[k] = true
	}
	// settle raises watermarks to the visible bound through the on-demand
	// path (the ensure a dependency rule sends), after the chains were
	// visited with theirs behind: of the keys named, or of every key written.
	settle := func(only ...kv.Key) {
		t.Helper()
		if len(only) == 0 {
			for k := range keys {
				only = append(only, k)
			}
			slices.Sort(only)
		}
		for _, tw := range twins {
			for _, k := range only {
				owner := tw.c.Server(0).Owner(k)
				v := tw.c.Server(owner).VisibleBound().Prev()
				resp, err := tw.inj.Call(ctx, transport.NodeID(owner), core.MsgFetch{Reqs: []core.FetchReq{{Kind: core.FetchUpTo, Key: k, Version: v}}})
				if r, ok := resp.(core.MsgFetchResp); err != nil || !ok || r.Results[0].Err != "" {
					t.Fatalf("%s: settle %s: %v %+v", tw.name, k, err, resp)
				}
			}
		}
	}
	restart := func() {
		t.Helper()
		drain()
		for _, tw := range twins {
			tw.stop()
			stores, startEpoch, err := wal.RecoverCluster(tw.dir, modelServers)
			if err != nil {
				t.Fatalf("%s: recover: %v", tw.name, err)
			}
			tw.start(stores, startEpoch)
		}
	}
	move := func(k kv.Key) {
		t.Helper()
		var tickets []*core.MoveTicket
		for _, tw := range twins {
			to := (tw.c.Server(0).Owner(k) + 1) % modelServers
			ticket, err := tw.c.Rebalancer().MoveKey(k, to)
			if err != nil {
				t.Fatalf("%s: move: %v", tw.name, err)
			}
			tickets = append(tickets, ticket)
		}
		advance() // the barrier of this switch exports and imports the chain
		for i, ticket := range tickets {
			if _, err := ticket.Wait(ctx); err != nil {
				t.Fatalf("%s: move: %v", twins[i].name, err)
			}
		}
	}

	// foldAll folds every settled key of both twins wherever the schedule
	// stands, not only where the processor finished a computation: with
	// retention on, keys of one version; off, histories, which a sweep
	// must still find nothing to retire in once retention is back on.
	foldAll := func() {
		t.Helper()
		drain()
		for _, tw := range twins {
			for i := 0; i < modelServers; i++ {
				tw.c.Server(i).FoldSettled()
			}
		}
	}

	// swept quiesces, commits retention + 1 further epochs and runs the
	// sweep the lists replaced: it must find nothing left.
	swept := func(when string) {
		t.Helper()
		drain()
		for i := tstamp.Epoch(0); i <= retained.retention; i++ {
			advance()
			drain()
		}
		horizon := tstamp.Start(retained.committed() - retained.retention)
		for i := 0; i < modelServers; i++ {
			if n := retained.c.Server(i).Store().Compact(horizon); n != 0 {
				t.Errorf("%s: server %d: a sweep at the horizon still removes %d versions the lists should have retired", when, i, n)
			}
		}
	}

	// Each burst key goes idle after its bursts, timed so that its history
	// can retire through one mechanism only; a restart files every chain
	// anew, so what came before it is checked before it.
	for round := 0; round < 44; round++ {
		randomOps()
		switch round {
		case 8:
			setRetention(1) // lowered
		case 10:
			straggle(hot[1])
		case 12:
			settle()
		case 14:
			setRetention(0) // off: the lists go
			burst("off:0")
		case 15:
			burst("off:0")
		case 16:
			setRetention(3) // on again while running: off:0 is filed by the seed
		case 21:
			swept("before the restart")
		case 22, 23:
			burst("pre:0") // filed by the seed at Start, retires at the settle below
		case 24:
			restart()
		// No list is seeded from here on.
		case 25, 26:
			burst("late:0")
			for i := 0; i < 3; i++ { // the acc keys are only ever written by deferred writes
				submit(modelOp{kind: "det-fixed", key: dets[0], aux: "acc:0"})
				submit(modelOp{kind: "det-fixed", key: dets[1], aux: "acc:lag"})
			}
			keys["acc:0"], keys["acc:lag"] = true, true
		case 28:
			// Everything lag:0 gets is of this epoch and stuck behind the
			// gate when the epoch's list is visited: it retires when the
			// worker catches up, or never. The deferred write to acc:lag
			// lands when the gate opens, its epoch's list long handed out.
			submit(modelOp{kind: "gate", key: "lag:0"})
			burst("lag:0")
			submit(modelOp{kind: "det-fixed", key: "lag:0", aux: "acc:lag"})
			gated = true
		case 34:
			openGate()
			burst("mig:0")
		case 35:
			burst("mig:0")
		case 36:
			drain()
			move("mig:0") // retires at the importer
		case 38:
			straggle("late:0") // into an epoch that wrote nothing else to late:0
		case 40:
			settle("pre:0", "acc:0", "acc:lag", "late:0")
		}
		advance()
		if gated {
			continue
		}
		if rng.Intn(2) == 0 {
			drain()
		}
		if round%4 == 1 {
			foldAll()
		}
		if round%6 == 5 {
			sameReads(fmt.Sprintf("round %d", round))
		}
	}

	// Quiesce. The window still has writes in it here.
	sameReads("quiesced")
	swept("at the end")
	sameReads("after the sweep")
	if retained.c.Stats().VersionsCompacted == 0 {
		t.Error("retention on and nothing was compacted")
	}
	for _, k := range hot {
		owner := retained.c.Server(0).Owner(k)
		with := len(retained.c.Server(owner).Store().View(k))
		without := len(reference.c.Server(owner).Store().View(k))
		// One surviving value, plus the aborted versions that follow it.
		if with > 10 || without < 50 {
			t.Errorf("%s: %d versions with retention, %d without", k, with, without)
		}
	}
}
