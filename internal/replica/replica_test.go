package replica

import (
	"context"
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

func ts(e tstamp.Epoch, seq uint32) tstamp.Timestamp { return tstamp.Make(e, seq, 0) }

func TestShipperBuffersUntilCommit(t *testing.T) {
	b := NewBackup()
	s := NewShipper(b)
	if err := s.LogInstall(ts(1, 1), "k", functor.Value(kv.Value("v"))); err != nil {
		t.Fatal(err)
	}
	if b.LastEpoch() != 0 {
		t.Error("backup received data before commit")
	}
	if err := s.LogEpochCommitted(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if b.LastEpoch() != 1 {
		t.Errorf("backup last epoch = %d, want 1", b.LastEpoch())
	}
	store, _ := b.Promote()
	if _, ok := store.At("k", ts(1, 1)); !ok {
		t.Error("shipped record missing on backup")
	}
}

func TestShipperKeepsLaterEpochEntries(t *testing.T) {
	b := NewBackup()
	s := NewShipper(b)
	// Straggler-mode install for epoch 2 arrives before epoch 1 commits.
	if err := s.LogInstall(ts(1, 1), "a", functor.Value(nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.LogInstall(ts(2, 1), "b", functor.Value(nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.LogEpochCommitted(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	store, _ := b.Promote()
	if _, ok := store.At("a", ts(1, 1)); !ok {
		t.Error("epoch-1 entry not shipped")
	}
	if _, ok := store.At("b", ts(2, 1)); ok {
		t.Error("epoch-2 entry shipped with epoch 1")
	}
	if err := s.LogEpochCommitted(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.At("b", ts(2, 1)); !ok {
		t.Error("epoch-2 entry not shipped at its own commit")
	}
}

func TestBackupAppliesAbortsAndIsIdempotent(t *testing.T) {
	b := NewBackup()
	entries := []wal.Entry{
		{Kind: wal.KindInstall, Version: ts(1, 1), Key: "x", Functor: functor.Value(kv.Value("v"))},
		{Kind: wal.KindAbort, Version: ts(1, 1), Keys: []kv.Key{"x"}},
	}
	if err := b.ShipEpoch(context.Background(), 1, entries); err != nil {
		t.Fatal(err)
	}
	if err := b.ShipEpoch(context.Background(), 1, entries); err != nil { // duplicate delivery
		t.Fatal(err)
	}
	store, last := b.Promote()
	if last != 1 {
		t.Errorf("last = %d, want 1", last)
	}
	rec, ok := store.At("x", ts(1, 1))
	if !ok || rec.Resolution() == nil || rec.Resolution().Kind != functor.ResolvedAborted {
		t.Errorf("aborted record not reproduced: %v ok=%v", rec, ok)
	}
}

// TestPrimaryBackupFailover replicates a running cluster to per-server
// backups, "crashes" the cluster, promotes the backups, and verifies the
// replacement cluster serves the committed state.
func TestPrimaryBackupFailover(t *testing.T) {
	const servers = 2
	backups := make([]*Backup, servers)
	for i := range backups {
		backups[i] = NewBackup()
	}
	c, err := core.NewCluster(core.ClusterConfig{
		Servers:      servers,
		ManualEpochs: true,
		DurabilityFactory: func(id int) (core.DurabilityHook, error) {
			return NewShipper(backups[id]), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load([]kv.Pair{
		{Key: "a", Value: kv.EncodeInt64(10)},
		{Key: "b", Value: kv.EncodeInt64(20)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Server(i%servers).Submit(ctx, core.Txn{Writes: []core.Write{
			{Key: "a", Functor: functor.Add(5)},
			{Key: "b", Functor: functor.Sub(5)},
		}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AdvanceEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// A write in the final, never-committed epoch must not survive.
	if _, err := c.Server(0).Submit(ctx, core.Txn{Writes: []core.Write{
		{Key: "a", Functor: functor.Add(1000)},
	}}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	stores := make([]*mvstore.Store, servers)
	var last tstamp.Epoch
	for i, b := range backups {
		var e tstamp.Epoch
		stores[i], e = b.Promote()
		if e > last {
			last = e
		}
	}
	c2, err := core.NewCluster(core.ClusterConfig{
		Servers:      servers,
		ManualEpochs: true,
		Stores:       stores,
		StartEpoch:   last + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[kv.Key]int64{"a": 20, "b": 10} {
		v, found, err := c2.Server(0).GetCommitted(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := kv.DecodeInt64(v)
		if !found || n != want {
			t.Errorf("%s = %d found=%v, want %d", key, n, found, want)
		}
	}
}

func TestRemoteShippingOverTransport(t *testing.T) {
	RegisterMessages()
	for name, net := range map[string]transport.Network{
		"mem": transport.NewMemNetwork(),
		"tcp": transport.NewTCPNetwork(map[transport.NodeID]string{0: "127.0.0.1:0", 100: "127.0.0.1:0"}),
	} {
		t.Run(name, func(t *testing.T) {
			defer net.Close()
			backup, err := NewBackupNode(net, 100)
			if err != nil {
				t.Fatal(err)
			}
			defer backup.Close()
			conn, err := net.Node(0, func(context.Context, transport.NodeID, any) (any, error) { return nil, nil })
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			shipper := NewShipper(NewRemoteSink(conn, 100))
			if err := shipper.LogInstall(ts(1, 1), "k", functor.Value(kv.Value("remote"))); err != nil {
				t.Fatal(err)
			}
			if err := shipper.LogEpochCommitted(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			store, last := backup.Backup.Promote()
			if last != 1 {
				t.Errorf("backup epoch = %d, want 1", last)
			}
			rec, ok := store.At("k", ts(1, 1))
			if !ok || string(rec.Functor.Arg) != "remote" {
				t.Error("remote shipment not applied")
			}
		})
	}
}

// TestShipEpochCancellation pins the shutdown contract: the context handed
// to LogEpochCommitted (the primary's lifetime context in production)
// cancels an in-flight shipment to an unresponsive backup instead of
// wedging the epoch commit forever.
func TestShipEpochCancellation(t *testing.T) {
	RegisterMessages()
	net := transport.NewTCPNetwork(map[transport.NodeID]string{
		0: "127.0.0.1:0", 100: "127.0.0.1:0",
	})
	defer net.Close()
	block := make(chan struct{})
	defer close(block)
	// A backup that never answers, standing in for a hung or dead node.
	if _, err := net.Node(100, func(context.Context, transport.NodeID, any) (any, error) {
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Node(0, func(context.Context, transport.NodeID, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	shipper := NewShipper(NewRemoteSink(conn, 100))
	if err := shipper.LogInstall(ts(1, 1), "k", functor.Value(kv.Value("v"))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- shipper.LogEpochCommitted(ctx, 1) }()
	time.Sleep(20 * time.Millisecond) // let the call get in flight
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled shipment reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shipment ignored context cancellation")
	}
}
