package wal

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

// recoverReference is recovery as first written: stage every committed
// entry, publish once at the end. Recover seals per epoch marker instead
// and must rebuild the same store.
func recoverReference(t *testing.T, path string) (*mvstore.Store, tstamp.Epoch) {
	t.Helper()
	var last tstamp.Epoch
	if err := Replay(path, func(e Entry) error {
		if e.Kind == KindEpochCommitted && e.Epoch > last {
			last = e.Epoch
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	store, bound := mvstore.New(), tstamp.End(last)
	if err := Replay(path, func(e Entry) error {
		if e.Kind == KindEpochCommitted || e.Version >= bound {
			return nil
		}
		switch e.Kind {
		case KindInstall:
			store.Put(e.Key, e.Version, e.Functor)
		case KindAbort:
			for _, k := range e.Keys {
				if rec, ok := store.At(k, e.Version); ok {
					rec.Resolve(functor.AbortedByPeer)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	store.SealAll(bound)
	return store, last
}

func everyKey(kv.Key) bool { return true }

func requireSameRecovery(t *testing.T, path string) {
	t.Helper()
	got, gotLast, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	want, wantLast := recoverReference(t, path)
	if gotLast != wantLast {
		t.Fatalf("last committed epoch %d, reference %d", gotLast, wantLast)
	}
	g, w := got.ExportMatching(everyKey), want.ExportMatching(everyKey)
	if len(w) == 0 {
		t.Fatal("reference recovered nothing")
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("recovered store differs from the reference:\n got %+v\nwant %+v", g, w)
	}
	// Export lists sealed and staged records alike; the readable views must
	// agree too.
	for _, ke := range w {
		if gv, wv := len(got.View(ke.Key)), len(want.View(ke.Key)); gv != wv {
			t.Fatalf("%q: %d readable versions, reference %d", ke.Key, gv, wv)
		}
	}
}

// TestRecoverMatchesReference compares the two recoveries on logs of every
// shape the live path writes: stragglers of the next epoch ahead of a
// marker, aborts, retransmitted installs, an uncommitted tail, and a log a
// running cluster wrote.
func TestRecoverMatchesReference(t *testing.T) {
	ctx := context.Background()
	t.Run("hand-written", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal")
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		keys := []kv.Key{"hot", "hot", "hot", "a", "b", "c", "d"}
		for e := tstamp.Epoch(1); e <= 12; e++ {
			for seq := uint32(1); seq <= 30; seq++ {
				k, v := keys[rng.Intn(len(keys))], ts(e, seq)
				if rng.Intn(6) == 0 {
					v = ts(e+1, 100+seq) // a straggler of the next epoch
				}
				l.LogInstall(v, k, functor.Add(int64(seq)))
				switch rng.Intn(10) {
				case 0:
					l.LogAbort(v, []kv.Key{k, "never-written"})
				case 1:
					l.LogInstall(v, k, functor.Add(int64(seq))) // retransmitted
				}
			}
			if e <= 10 { // epochs 11 and 12 never commit
				if err := l.LogEpochCommitted(ctx, e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		requireSameRecovery(t, path)
	})

	t.Run("cluster-written", func(t *testing.T) {
		dir := t.TempDir()
		c, err := core.NewCluster(core.ClusterConfig{
			Servers:      2,
			ManualEpochs: true,
			DurabilityFactory: func(id int) (core.DurabilityHook, error) {
				return Open(LogPath(dir, id))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load([]kv.Pair{{Key: "x", Value: kv.EncodeInt64(1)}, {Key: "y", Value: kv.EncodeInt64(2)}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 5; e++ {
			for i := 0; i < 20; i++ {
				k := kv.Key(fmt.Sprintf("k%d", i%7))
				if _, err := c.Server(i%2).Submit(ctx, core.Txn{Writes: []core.Write{
					{Key: k, Functor: functor.Add(1)}, {Key: "x", Functor: functor.Add(1)},
				}}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.AdvanceEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		c.Server(0).Submit(ctx, core.Txn{Writes: []core.Write{{Key: "x", Functor: functor.Add(1000)}}})
		c.Close()
		for id := 0; id < 2; id++ {
			requireSameRecovery(t, LogPath(dir, id))
		}
	})
}

// TestRecoverLinearInChainLength: 20 000 versions of one key recover in
// about the time of 20 000 keys with one version each. Staged until the
// end of the replay they took quadratic time (each install is checked
// against everything staged before it).
func TestRecoverLinearInChainLength(t *testing.T) {
	const epochs, perEpoch = 200, 100
	write := func(name string, key func(i int) kv.Key) string {
		path := filepath.Join(t.TempDir(), name)
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		add := functor.Add(1)
		for e := tstamp.Epoch(1); e <= epochs; e++ {
			for seq := uint32(1); seq <= perEpoch; seq++ {
				if err := l.LogInstall(ts(e, seq), key(int(e-1)*perEpoch+int(seq)), add); err != nil {
					t.Fatal(err)
				}
			}
			// The marker alone, without its fsync: 200 of those would be
			// most of the test's run time.
			if err := l.append(Entry{Kind: KindEpochCommitted, Epoch: e}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	hot := write("hot", func(int) kv.Key { return "hot" })
	cold := write("cold", func(i int) kv.Key { return kv.Key(fmt.Sprintf("cold:%d", i)) })
	recoverIn := func(path string, keys, versions int) time.Duration {
		best := time.Duration(0)
		for try := 0; try < 3; try++ {
			start := time.Now()
			store, last, err := Recover(path)
			d := time.Since(start)
			if err != nil || last != epochs || store.Len() != keys || len(store.View(kv.Key(filepath.Base(path)))) != versions {
				t.Fatalf("%s: recovered %d keys up to epoch %d, err %v", path, store.Len(), last, err)
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	hotTime := recoverIn(hot, 1, epochs*perEpoch)
	coldTime := recoverIn(cold, epochs*perEpoch, 0)
	t.Logf("one key x %d versions: %v; %d keys x one version: %v", epochs*perEpoch, hotTime, epochs*perEpoch, coldTime)
	if hotTime > 3*coldTime {
		t.Errorf("recovering one %d-version key took %v, more than 3x the %v of %d single-version keys",
			epochs*perEpoch, hotTime, coldTime, epochs*perEpoch)
	}
}
