package wal

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

func ts(e tstamp.Epoch, seq uint32) tstamp.Timestamp { return tstamp.Make(e, seq, 0) }

// ReplayStrict is Replay but fails on any corrupt record, a torn tail
// included.
func ReplayStrict(path string, fn func(Entry) error) error { return replay(path, fn, true) }

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fn := functor.User("h", []byte("arg"), []kv.Key{"a", "b"})
	if err := l.LogInstall(ts(1, 1), "k1", fn); err != nil {
		t.Fatal(err)
	}
	if err := l.LogInstall(ts(1, 2), "k2", functor.Add(7)); err != nil {
		t.Fatal(err)
	}
	if err := l.LogAbort(ts(1, 2), []kv.Key{"k2", "k3"}); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpochCommitted(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var entries []Entry
	if err := ReplayStrict(path, func(e Entry) error {
		entries = append(entries, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("replayed %d entries, want 4", len(entries))
	}
	if entries[0].Kind != KindInstall || entries[0].Key != "k1" ||
		entries[0].Functor.Handler != "h" || len(entries[0].Functor.ReadSet) != 2 {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[2].Kind != KindAbort || len(entries[2].Keys) != 2 {
		t.Errorf("entry 2 = %+v", entries[2])
	}
	if entries[3].Kind != KindEpochCommitted || entries[3].Epoch != 1 {
		t.Errorf("entry 3 = %+v", entries[3])
	}
}

func TestReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogInstall(ts(1, 1), "k", functor.Value(kv.Value("v"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage to simulate a torn write at crash time.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	count := 0
	if err := Replay(path, func(Entry) error { count++; return nil }); err != nil {
		t.Fatalf("lenient replay failed: %v", err)
	}
	if count != 1 {
		t.Errorf("replayed %d entries, want 1", count)
	}
	if err := ReplayStrict(path, func(Entry) error { return nil }); err == nil {
		t.Error("strict replay should fail on torn tail")
	}
}

func TestReplayCRCCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogInstall(ts(1, 1), "k", functor.Value(kv.Value("value-bytes"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := Replay(path, func(Entry) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("corrupt entry replayed")
	}
}

func TestRecoverDiscardsUncommittedEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1: committed.
	if err := l.LogInstall(ts(1, 1), "a", functor.Value(kv.EncodeInt64(10))); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpochCommitted(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Epoch 2: crash before the marker.
	if err := l.LogInstall(ts(2, 1), "a", functor.Value(kv.EncodeInt64(99))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	store, last, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if last != 1 {
		t.Errorf("last committed = %d, want 1", last)
	}
	if got := len(store.View("a")); got != 1 {
		t.Errorf("key a has %d versions, want 1 (uncommitted discarded)", got)
	}
}

func TestRecoverAppliesAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogInstall(ts(1, 1), "x", functor.Value(kv.Value("poison"))); err != nil {
		t.Fatal(err)
	}
	if err := l.LogAbort(ts(1, 1), []kv.Key{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpochCommitted(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	store, _, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := store.At("x", ts(1, 1))
	if !ok {
		t.Fatal("record missing after recovery")
	}
	res := rec.Resolution()
	if res == nil || res.Kind != functor.ResolvedAborted {
		t.Errorf("resolution = %v, want ABORTED", res)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := mvstore.New()
	put := func(k kv.Key, v tstamp.Timestamp, fn *functor.Functor, res *functor.Resolution) {
		rec, err := src.Put(k, v, fn)
		if err != nil {
			t.Fatal(err)
		}
		rec.Resolve(res)
		src.Seal(k, tstamp.Max)
		src.AdvanceWatermark(k, v)
	}
	put("a", ts(1, 1), functor.Value(kv.EncodeInt64(1)), functor.ValueResolution(kv.EncodeInt64(1)))
	put("a", ts(2, 1), functor.Value(kv.EncodeInt64(2)), functor.ValueResolution(kv.EncodeInt64(2)))
	put("gone", ts(1, 2), functor.Deleted(), functor.DeleteResolution())
	// An aborted head: the checkpoint must fall back to the value below.
	put("b", ts(1, 3), functor.Value(kv.EncodeInt64(7)), functor.ValueResolution(kv.EncodeInt64(7)))
	put("b", ts(2, 2), functor.Aborted(), functor.AbortResolution("x"))
	// A deferred write's record: born resolved and sealed, its functor a
	// shared placeholder, the value in the record's outcome alone.
	src.PutFinal("row", ts(2, 3), functor.Resolved, kv.Value("deferred"), true)
	// And a few hundred more, some since thawed or dropped, so that shards
	// hold several rows, dead ones between them, beside chains.
	const extra = 300
	for i := 0; i < extra; i++ {
		k := kv.Key(fmt.Sprintf("extra:%d", i))
		src.PutFinal(k, ts(1, uint32(10+i)), functor.Resolved, kv.EncodeInt64(int64(i)), true)
		switch i % 10 {
		case 3:
			src.View(k)
		case 7:
			src.Drop(k)
		}
	}
	const keys = 4 + extra - extra/10

	path := filepath.Join(dir, "ckpt")
	bound := tstamp.End(2).Prev()
	if err := WriteCheckpoint(src, bound, path); err != nil {
		t.Fatal(err)
	}
	loaded, gotBound, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotBound != bound {
		t.Errorf("bound = %v, want %v", gotBound, bound)
	}
	// One final value per key is what a row is: the restored store has the
	// shape of a loaded one, writing it out again thaws nothing, and the
	// second checkpoint is the first, byte for byte.
	if st := loaded.Stats(); st.Rows != keys || st.Chains != 0 {
		t.Errorf("restored store: %+v, want %d rows and no chain", st, keys)
	}
	again := filepath.Join(dir, "ckpt2")
	if err := WriteCheckpoint(loaded, bound, again); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)
	second, _ := os.ReadFile(again)
	if len(first) == 0 || !bytes.Equal(first, second) {
		t.Errorf("checkpoint of the restored store differs from the one it was restored from (%d and %d bytes)", len(first), len(second))
	}
	if st := loaded.Stats(); st.Rows != keys || st.Thaws != 0 {
		t.Errorf("writing a checkpoint thawed the store: %+v", st)
	}
	rec, ok := loaded.Latest("a", tstamp.Max)
	if !ok || rec.Version != ts(2, 1) {
		t.Fatalf("a: rec=%v ok=%v", rec, ok)
	}
	if n, _ := kv.DecodeInt64(rec.Resolution().Value); n != 2 {
		t.Errorf("a = %d, want 2", n)
	}
	rec, ok = loaded.Latest("gone", tstamp.Max)
	if !ok || rec.Resolution().Kind != functor.ResolvedDeleted {
		t.Error("tombstone not preserved")
	}
	rec, ok = loaded.Latest("b", tstamp.Max)
	if !ok || rec.Version != ts(1, 3) {
		t.Fatalf("b: rec=%+v ok=%v (aborted head must be skipped)", rec, ok)
	}
	rec, ok = loaded.Latest("row", tstamp.Max)
	if !ok || rec.Version != ts(2, 3) || string(rec.Resolution().Value) != "deferred" {
		t.Fatalf("row: rec=%+v ok=%v, want the deferred write's value", rec, ok)
	}
	if wm := loaded.Chain("row").Watermark(); wm != ts(2, 3) {
		t.Errorf("row watermark = %v, want %v", wm, ts(2, 3))
	}
}

func TestCheckpointRejectsUncomputed(t *testing.T) {
	src := mvstore.New()
	if _, err := src.Put("k", ts(1, 1), functor.Add(1)); err != nil {
		t.Fatal(err)
	}
	src.SealAll(tstamp.Max)
	err := WriteCheckpoint(src, tstamp.Max, filepath.Join(t.TempDir(), "ckpt"))
	if err == nil {
		t.Error("checkpoint of uncomputed store should fail")
	}
}

// TestClusterCrashRecovery runs a full cluster with WAL durability, kills
// it, recovers every partition from its log, restarts at the next epoch,
// and verifies both the recovered state and continued operation.
func TestClusterCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	logPath := func(id int) string { return filepath.Join(dir, "server-"+string(rune('0'+id))+".wal") }
	mkCluster := func(stores []*mvstore.Store, start tstamp.Epoch) *core.Cluster {
		c, err := core.NewCluster(core.ClusterConfig{
			Servers:      2,
			ManualEpochs: true,
			Stores:       stores,
			StartEpoch:   start,
			DurabilityFactory: func(id int) (core.DurabilityHook, error) {
				return Open(logPath(id))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c1 := mkCluster(nil, 0)
	if err := c1.Load([]kv.Pair{{Key: "bal", Value: kv.EncodeInt64(100)}}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c1.Server(0).Submit(ctx, core.Txn{Writes: []core.Write{
			{Key: "bal", Functor: functor.Add(10)},
		}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.AdvanceEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// One more write whose epoch never commits (simulated crash).
	if _, err := c1.Server(0).Submit(ctx, core.Txn{Writes: []core.Write{
		{Key: "bal", Functor: functor.Add(1000)},
	}}); err != nil {
		t.Fatal(err)
	}
	lastEpoch := c1.CurrentEpoch()
	c1.Close()

	// Recover both partitions.
	stores := make([]*mvstore.Store, 2)
	var lastCommitted tstamp.Epoch
	for i := 0; i < 2; i++ {
		store, last, err := Recover(logPath(i))
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = store
		if last > lastCommitted {
			lastCommitted = last
		}
	}
	if lastCommitted != lastEpoch-1 {
		t.Errorf("last committed = %d, want %d", lastCommitted, lastEpoch-1)
	}

	c2 := mkCluster(stores, lastCommitted+1)
	defer c2.Close()
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	v, found, err := c2.Server(0).GetCommitted(ctx, "bal")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := kv.DecodeInt64(v)
	if !found || n != 130 {
		t.Errorf("bal = %d found=%v, want 130 (uncommitted +1000 discarded)", n, found)
	}
	// The recovered cluster keeps working.
	if _, err := c2.Server(1).Submit(ctx, core.Txn{Writes: []core.Write{
		{Key: "bal", Functor: functor.Sub(30)},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	v, _, err = c2.Server(0).GetCommitted(ctx, "bal")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := kv.DecodeInt64(v); n != 100 {
		t.Errorf("bal after recovery write = %d, want 100", n)
	}
}

func TestRecoverFullWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal")
	ckptPath := filepath.Join(dir, "ckpt")

	l, err := Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 committed, checkpointed; epoch 2 committed after the
	// checkpoint; epoch 3 uncommitted.
	if err := l.LogInstall(ts(1, 1), "k", functor.Value(kv.EncodeInt64(1))); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpochCommitted(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ckptStore := mvstore.New()
	rec, err := ckptStore.Put("k", ts(1, 1), functor.Value(kv.EncodeInt64(1)))
	if err != nil {
		t.Fatal(err)
	}
	rec.Resolve(functor.ValueResolution(kv.EncodeInt64(1)))
	ckptStore.SealAll(tstamp.Max)
	ckptStore.AdvanceWatermark("k", ts(1, 1))
	if err := WriteCheckpoint(ckptStore, tstamp.End(1).Prev(), ckptPath); err != nil {
		t.Fatal(err)
	}
	if err := l.LogInstall(ts(2, 1), "k", functor.Value(kv.EncodeInt64(2))); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpochCommitted(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := l.LogInstall(ts(3, 1), "k", functor.Value(kv.EncodeInt64(3))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	store, last, err := RecoverFull(ckptPath, logPath)
	if err != nil {
		t.Fatal(err)
	}
	if last != 2 {
		t.Errorf("last = %d, want 2", last)
	}
	view := store.View("k")
	if len(view) != 2 {
		t.Fatalf("k has %d versions, want 2", len(view))
	}
	if view[1].Version != ts(2, 1) {
		t.Errorf("newest version = %v, want %v", view[1].Version, ts(2, 1))
	}
}

// TestLastSyncAge covers the readiness-probe hook: unknown before the
// first fsync, then a small age immediately after one.
func TestLastSyncAge(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, ok := l.LastSyncAge(); ok {
		t.Error("LastSyncAge ok before any Sync")
	}
	if err := l.LogEpochCommitted(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	age, ok := l.LastSyncAge()
	if !ok {
		t.Fatal("LastSyncAge not ok after epoch commit")
	}
	if age < 0 || age > 10*time.Second {
		t.Errorf("implausible fsync age %v", age)
	}
}
