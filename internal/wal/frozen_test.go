package wal

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

// TestFrozenHistoryCheckpointsAndRecovers serves a durable cluster until the
// processor has frozen most of two keys' history — "k" ends in aborted
// versions, so its latest readable version is frozen; "n" counts up — and
// then requires a checkpoint at the last committed bound to write the
// versions a read there finds, from inside the frozen run, and a recovery
// from the log to answer every historical read as the live cluster did.
func TestFrozenHistoryCheckpointsAndRecovers(t *testing.T) {
	const (
		versions = 20
		readable = 12 // versions of k above this one abort
	)
	dir := t.TempDir()
	reg := functor.NewRegistry()
	reg.MustRegister("maybe", func(ctx *functor.Context) (*functor.Resolution, error) {
		if string(ctx.Arg) == "abort" {
			return functor.AbortResolution("asked to"), nil
		}
		return functor.ValueResolution(ctx.Arg), nil
	})
	newCluster := func(cfg core.ClusterConfig) *core.Cluster {
		cfg.Servers, cfg.ManualEpochs, cfg.Registry, cfg.Workers = 1, true, reg, 1
		c, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := newCluster(core.ClusterConfig{DurabilityFactory: func(id int) (core.DurabilityHook, error) {
		return Open(LogPath(dir, id))
	}})
	ctx := context.Background()
	var at []tstamp.Timestamp
	for i := 1; i <= versions; i++ {
		arg := []byte(fmt.Sprintf("v%d", i))
		if i > readable {
			arg = []byte("abort")
		}
		h, err := c1.Server(0).Submit(ctx, core.Txn{Writes: []core.Write{
			{Key: "k", Functor: functor.User("maybe", arg, nil)},
			{Key: "n", Functor: functor.Add(1)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c1.AdvanceEpoch(); err != nil {
			t.Fatal(err)
		}
		c1.DrainProcessors()
		at = append(at, h.Version())
	}
	store := c1.Server(0).Store()
	if h := store.Chain("k").History(); h.Frozen() < readable {
		t.Fatalf("k has %d of its %d versions frozen, want the first %d at least", h.Frozen(), h.Len(), readable)
	}
	type read struct {
		value kv.Value
		found bool
	}
	readAll := func(c *core.Cluster) map[kv.Key][]read {
		t.Helper()
		out := map[kv.Key][]read{}
		for _, k := range []kv.Key{"k", "n"} {
			for _, v := range at {
				value, found, err := c.Server(0).GetAt(ctx, k, v)
				if err != nil {
					t.Fatal(err)
				}
				out[k] = append(out[k], read{value, found})
			}
		}
		return out
	}
	live := readAll(c1)
	if got := live["k"][versions-1]; !got.found || string(got.value) != fmt.Sprintf("v%d", readable) {
		t.Fatalf("k reads %q found=%v at its newest version, want v%d", got.value, got.found, readable)
	}

	// The checkpoint's row of k is the version a read at the bound finds:
	// frozen, below the aborted ones. The processors are drained, so every
	// version up to the last committed epoch is computed.
	bound := tstamp.End(c1.Server(0).CommittedEpoch()).Prev()
	if err := WriteCheckpoint(store, bound, CheckpointPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	ckpt, ckptBound, err := LoadCheckpoint(CheckpointPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ckptBound != bound {
		t.Fatalf("checkpoint bound %v, want %v", ckptBound, bound)
	}
	for k, want := range map[kv.Key]struct {
		version tstamp.Timestamp
		value   kv.Value
	}{"k": {at[readable-1], kv.Value(fmt.Sprintf("v%d", readable))}, "n": {at[versions-1], kv.EncodeInt64(versions)}} {
		c, row, ok := ckpt.Read(k, tstamp.Max)
		if c != nil || !ok || row.Kind != functor.Resolved || row.Version != want.version || !bytes.Equal(row.Value, want.value) {
			t.Fatalf("the checkpoint holds %q as %+v (row %v), want version %v = %q", k, row, ok, want.version, want.value)
		}
	}
	c1.Close()

	// The log alone rebuilds the whole history, frozen part included.
	recovered, last, err := RecoverFull("", LogPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	c2 := newCluster(core.ClusterConfig{Stores: []*mvstore.Store{recovered}, StartEpoch: last + 1})
	after := readAll(c2)
	for k, reads := range live {
		for i, want := range reads {
			if got := after[k][i]; got.found != want.found || !bytes.Equal(got.value, want.value) {
				t.Fatalf("%q at %v: recovered %q found=%v, live %q found=%v", k, at[i], got.value, got.found, want.value, want.found)
			}
		}
	}
}
