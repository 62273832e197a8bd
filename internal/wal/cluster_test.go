package wal

import (
	"context"
	"testing"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// checkpoint drains c's processors and writes every server's checkpoint
// at the last epoch committed on all of them.
func checkpoint(t *testing.T, c *core.Cluster, dir string) {
	t.Helper()
	c.DrainProcessors()
	last := tstamp.MaxEpoch
	for i := 0; i < c.NumServers(); i++ {
		last = min(last, c.Server(i).CommittedEpoch())
	}
	bound := tstamp.End(last).Prev()
	for i := 0; i < c.NumServers(); i++ {
		if err := WriteCheckpoint(c.Server(i).Store(), bound, CheckpointPath(dir, i)); err != nil {
			t.Fatalf("checkpoint server %d: %v", i, err)
		}
	}
}

// TestClusterCheckpointRecovery runs the full operational cycle: serve
// with WAL durability, checkpoint mid-life, keep serving, crash, recover
// from checkpoint + log suffix, and keep serving again.
func TestClusterCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	const servers = 2

	newCluster := func(cfg core.ClusterConfig) *core.Cluster {
		cfg.Servers = servers
		cfg.ManualEpochs = true
		cfg.DurabilityFactory = func(id int) (core.DurabilityHook, error) {
			return Open(LogPath(dir, id))
		}
		c, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c1 := newCluster(core.ClusterConfig{})
	if err := c1.Load([]kv.Pair{
		{Key: "bal", Value: kv.EncodeInt64(100)},
		{Key: "other", Value: kv.EncodeInt64(7)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bump := func(c *core.Cluster, delta int64) {
		t.Helper()
		if _, err := c.Server(0).Submit(ctx, core.Txn{Writes: []core.Write{
			{Key: "bal", Functor: functor.Add(delta)},
		}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AdvanceEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	bump(c1, 10)
	bump(c1, 10)

	// Checkpoint at bal=120, then two more epochs of writes land in the
	// log suffix only.
	checkpoint(t, c1, dir)
	bump(c1, 5)
	bump(c1, 5)
	// An uncommitted write that the crash must discard.
	if _, err := c1.Server(0).Submit(ctx, core.Txn{Writes: []core.Write{
		{Key: "bal", Functor: functor.Add(1000)},
	}}); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	stores, startEpoch, err := RecoverCluster(dir, servers)
	if err != nil {
		t.Fatal(err)
	}
	c2 := newCluster(core.ClusterConfig{Stores: stores, StartEpoch: startEpoch})
	defer c2.Close()
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	v, found, err := c2.Server(1).GetCommitted(ctx, "bal")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := kv.DecodeInt64(v)
	if !found || n != 130 {
		t.Errorf("bal = %d found=%v, want 130", n, found)
	}
	v, found, err = c2.Server(0).GetCommitted(ctx, "other")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := kv.DecodeInt64(v); !found || n != 7 {
		t.Errorf("other = %d found=%v, want 7", n, found)
	}
	// The recovered cluster keeps serving.
	bump(c2, 3)
	v, _, err = c2.Server(0).GetCommitted(ctx, "bal")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := kv.DecodeInt64(v); n != 133 {
		t.Errorf("bal after recovery write = %d, want 133", n)
	}
}
