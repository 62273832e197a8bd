package core

import (
	"context"
	"strings"
	"testing"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
)

// markerCluster builds a two-partition cluster with no asynchronous
// processors, so dependent-key markers can only resolve through the
// on-demand path: read marker -> ensure to the determinate partition ->
// derive the marker's resolution from the determinate functor's.
func markerCluster(t *testing.T, handler string, h functor.Handler) *Cluster {
	t.Helper()
	reg := functor.NewRegistry()
	reg.MustRegister(handler, h)
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Registry:     reg,
		Workers:      -1,
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
	t.Cleanup(func() { c.Close() })
	return c
}

// TestMarkerOnDemandRemoteResolution: reading a marker forces the remote
// determinate functor's computation and adopts its deferred write.
func TestMarkerOnDemandRemoteResolution(t *testing.T) {
	c := markerCluster(t, "det", func(ctx *functor.Context) (*functor.Resolution, error) {
		return &functor.Resolution{
			Kind:  functor.Resolved,
			Value: kv.EncodeInt64(1),
			DependentWrites: []functor.DependentWrite{
				{Key: "dep:row", Value: kv.Value("written")},
			},
		}, nil
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "det:seq", Functor: functor.User("det", nil, nil,
			functor.WithDependentKeys("dep:row"))},
	}})
	mustAdvance(t, c)
	// The marker lives on partition 1; its only resolution path is the
	// read-triggered ensure round trip to partition 0.
	v, found, err := c.Server(1).GetCommitted(ctx, "dep:row")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "written" {
		t.Errorf("dep:row = %q found=%v", v, found)
	}
}

// TestMarkerDissolvesWhenNotWritten: the determinate functor declares the
// dependent key but chooses not to write it; the marker must dissolve and
// the read fall through.
func TestMarkerDissolvesWhenNotWritten(t *testing.T) {
	c := markerCluster(t, "det", func(ctx *functor.Context) (*functor.Resolution, error) {
		return functor.ValueResolution(kv.EncodeInt64(1)), nil // no deferred writes
	})
	if err := c.Load([]kv.Pair{{Key: "dep:row", Value: kv.Value("old")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "det:seq", Functor: functor.User("det", nil, nil,
			functor.WithDependentKeys("dep:row"))},
	}})
	mustAdvance(t, c)
	v, found, err := c.Server(0).GetCommitted(context.Background(), "dep:row")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "old" {
		t.Errorf("dep:row = %q found=%v, want the pre-existing value", v, found)
	}
}

// TestMarkerAbortsWithDeterminate: when the determinate functor aborts,
// the marker resolves ABORTED and the read falls through.
func TestMarkerAbortsWithDeterminate(t *testing.T) {
	c := markerCluster(t, "det", func(ctx *functor.Context) (*functor.Resolution, error) {
		return functor.AbortResolution("constraint violated"), nil
	})
	if err := c.Load([]kv.Pair{{Key: "dep:row", Value: kv.Value("survivor")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "det:seq", Functor: functor.User("det", nil, nil,
			functor.WithDependentKeys("dep:row"))},
	}})
	mustAdvance(t, c)
	v, found, err := c.Server(1).GetCommitted(context.Background(), "dep:row")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "survivor" {
		t.Errorf("dep:row = %q found=%v, want survivor", v, found)
	}
	// The determinate key's own version must also read as aborted
	// (skipped).
	if _, found, _ := c.Server(0).GetCommitted(context.Background(), "det:seq"); found {
		t.Error("aborted determinate version visible")
	}
}

// TestMarkerDeferredDelete: a deferred write can be a tombstone.
func TestMarkerDeferredDelete(t *testing.T) {
	c := markerCluster(t, "det", func(ctx *functor.Context) (*functor.Resolution, error) {
		return &functor.Resolution{
			Kind:  functor.Resolved,
			Value: kv.EncodeInt64(1),
			DependentWrites: []functor.DependentWrite{
				{Key: "dep:row", Delete: true},
			},
		}, nil
	})
	if err := c.Load([]kv.Pair{{Key: "dep:row", Value: kv.Value("doomed")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "det:seq", Functor: functor.User("det", nil, nil,
			functor.WithDependentKeys("dep:row"))},
	}})
	mustAdvance(t, c)
	if _, found, err := c.Server(0).GetCommitted(context.Background(), "dep:row"); err != nil || found {
		t.Errorf("dep:row found=%v err=%v, want deleted", found, err)
	}
}

// TestUnknownHandlerAborts: a functor naming an unregistered handler
// aborts rather than wedging the chain.
func TestUnknownHandlerAborts(t *testing.T) {
	c := newTestCluster(t, 1, 0)
	if err := c.Load([]kv.Pair{{Key: "k", Value: kv.Value("base")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "k", Functor: functor.User("never-registered", nil, nil)},
	}})
	mustAdvance(t, c)
	committed, reason, err := h.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("unknown handler should abort")
	}
	if !strings.Contains(reason, "unknown handler") {
		t.Errorf("reason = %q", reason)
	}
	// The chain stays readable below the aborted version.
	v, found, err := c.Server(0).GetCommitted(context.Background(), "k")
	if err != nil || !found || string(v) != "base" {
		t.Errorf("k = %q found=%v err=%v", v, found, err)
	}
}

// TestHandlerReturningNilAborts: a handler returning (nil, nil) is a logic
// error that aborts the transaction.
func TestHandlerReturningNilAborts(t *testing.T) {
	reg := functor.NewRegistry()
	reg.MustRegister("broken", func(*functor.Context) (*functor.Resolution, error) {
		return nil, nil
	})
	c, err := NewCluster(ClusterConfig{Servers: 1, ManualEpochs: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{
		{Key: "k", Functor: functor.User("broken", nil, nil)},
	}})
	mustAdvance(t, c)
	committed, reason, err := h.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed || !strings.Contains(reason, "no resolution") {
		t.Errorf("committed=%v reason=%q", committed, reason)
	}
}

// TestLoadFunctorSeedsNonValueState: pre-seeding an arithmetic functor at
// epoch 0 computes on first read.
func TestLoadFunctorSeedsNonValueState(t *testing.T) {
	c := newTestCluster(t, 1, 0)
	if err := c.LoadFunctor("ctr", functor.Add(41)); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "ctr", Functor: functor.Add(1)}}})
	mustAdvance(t, c)
	if n, ok := readInt(t, c, 0, "ctr"); !ok || n != 42 {
		t.Errorf("ctr = %d ok=%v, want 42", n, ok)
	}
}
