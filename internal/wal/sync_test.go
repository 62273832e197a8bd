package wal

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// holdFsync makes l's fsync signal entered and then wait for release
// before it syncs the file. Later fsyncs, once released, pass straight
// through.
func holdFsync(l *Log) (entered <-chan struct{}, release func()) {
	in := make(chan struct{}, 1)
	held := make(chan struct{})
	var once sync.Once
	fsync := l.fsync
	l.fsync = func() error {
		select {
		case in <- struct{}{}:
		default:
		}
		<-held
		return fsync()
	}
	return in, func() { once.Do(func() { close(held) }) }
}

func openTestLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

// TestAppendDuringFsyncDoesNotWait: an epoch's fsync holds no append. An
// install issued while LogEpochCommitted is inside its fsync returns before
// the fsync does.
func TestAppendDuringFsyncDoesNotWait(t *testing.T) {
	l, _ := openTestLog(t)
	defer l.Close()
	entered, release := holdFsync(l)
	defer release()
	synced := make(chan error, 1)
	go func() { synced <- l.LogEpochCommitted(context.Background(), 1) }()
	<-entered

	appended := make(chan error, 1)
	go func() { appended <- l.LogInstall(ts(2, 1), "k", functor.Add(1)) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an append waited for the fsync in flight")
	}
	select {
	case err := <-synced:
		t.Fatalf("Sync returned (%v) before its fsync was released", err)
	default:
	}
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
}

// TestCloseWaitsForSync: Close does not close the file under an fsync in
// flight; it returns after the Sync does, and that Sync succeeds.
func TestCloseWaitsForSync(t *testing.T) {
	l, _ := openTestLog(t)
	entered, release := holdFsync(l)
	defer release()
	var fsynced atomic.Bool
	held := l.fsync
	l.fsync = func() error {
		err := held()
		fsynced.Store(true)
		return err
	}
	if err := l.LogInstall(ts(1, 1), "k", functor.Add(1)); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-entered

	closed := make(chan bool, 1)
	go func() {
		if err := l.Close(); err != nil {
			t.Error(err)
		}
		closed <- fsynced.Load()
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an fsync was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-synced; err != nil {
		t.Fatalf("the Sync raced by Close failed: %v", err)
	}
	if !<-closed {
		t.Error("Close returned before the fsync in flight")
	}
}

// TestReplayAfterRacedSync: appends racing a Sync lose nothing the Sync
// covers. Writers append a bounded run of records, pausing every few, while
// Syncs run back to back; after each Sync, replaying the file as it lies
// (no Close, which would flush the rest) returns every record appended
// before the Sync began, in each writer's order.
func TestReplayAfterRacedSync(t *testing.T) {
	const writers, records = 4, 4000
	l, path := openTestLog(t)
	defer l.Close()
	var appended [writers]atomic.Uint32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := kv.Key(fmt.Sprintf("w%d", w))
			for seq := uint32(1); seq <= records; seq++ {
				if err := l.LogInstall(tstamp.Make(1, seq, uint16(w)), key, functor.Add(int64(seq))); err != nil {
					t.Error(err)
					return
				}
				appended[w].Store(seq)
				if seq%16 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	writing := make(chan struct{})
	go func() {
		wg.Wait()
		close(writing)
	}()

	for round, last := 0, false; !last; round++ {
		select {
		case <-writing:
			// One more round with nothing racing it, then stop.
			t.Logf("%d Syncs raced the writers", round)
			last = true
		default:
		}
		var before [writers]uint32
		for w := range before {
			before[w] = appended[w].Load()
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		var replayed [writers]uint32
		err := Replay(path, func(e Entry) error {
			w, seq := e.Version.Server(), e.Version.Seq()
			if e.Kind != KindInstall || int(w) >= writers || seq != replayed[w]+1 {
				return fmt.Errorf("record %v of kind %d after writer %d's record %d", e.Version, e.Kind, w, replayed[w])
			}
			replayed[w] = seq
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for w := range before {
			if replayed[w] < before[w] {
				t.Fatalf("round %d: writer %d had appended %d records before Sync began, replay returned %d", round, w, before[w], replayed[w])
			}
		}
	}
}

// TestLoggedLoadAllocatesNoFunctorPerPair: a bulk load through a log frames
// each pair from the cluster's one reused functor into the log's one reused
// buffer, so it allocates what a load without a hook does
// (core.TestLoadAllocatesNoFunctorPerPair): a row's share of slab and index
// growth, and neither a functor nor a record per pair.
func TestLoggedLoadAllocatesNoFunctorPerPair(t *testing.T) {
	const n = 10_000
	c, err := core.NewCluster(core.ClusterConfig{
		Servers:      1,
		ManualEpochs: true,
		DurabilityFactory: func(int) (core.DurabilityHook, error) {
			return Open(filepath.Join(t.TempDir(), "wal"))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pairs := make([]kv.Pair, n)
	for i := range pairs {
		pairs[i] = kv.Pair{Key: kv.Key(fmt.Sprintf("row:%05d", i)), Value: kv.EncodeInt64(int64(i))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := c.Load(pairs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.2 {
		t.Errorf("a logged Cluster.Load allocates %.2f objects per pair, want <= 0.2", per)
	}
}

// BenchmarkLogInstall appends a NewOrder-sized install (its handler, a
// ten-line argument, a two-key read set) to a log on disk: the cost a
// durable server pays per installed write, 0 allocs/op.
func BenchmarkLogInstall(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	arg := make([]byte, 96)
	for i := range arg {
		arg[i] = byte(i)
	}
	fn := functor.User("tpcc.neworder", arg, []kv.Key{"dt:0001:02", "c:0001:02:0042"})
	key := kv.Key("doid:0001:02")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.LogInstall(tstamp.Make(1, uint32(i), 0), key, fn); err != nil {
			b.Fatal(err)
		}
	}
}
