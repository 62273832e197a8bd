package core

import (
	"context"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// gatedMarker is a durability hook whose marker for one epoch waits until
// the test opens the gate.
type gatedMarker struct {
	failingMarker
	at      tstamp.Epoch
	entered chan struct{}
	gate    chan struct{}
}

func (h *gatedMarker) LogEpochCommitted(ctx context.Context, e tstamp.Epoch) error {
	if e == h.at {
		close(h.entered)
		<-h.gate
	}
	return h.failingMarker.LogEpochCommitted(ctx, e)
}

// installTwoEpochs starts a one-server cluster and installs a in its epoch e
// and b in e+1 (the revoke of e puts the server in straggler mode); e
// commits on no server.
func installTwoEpochs(t *testing.T, hook DurabilityHook) (*Cluster, tstamp.Epoch) {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Servers:           1,
		ManualEpochs:      true,
		DurabilityFactory: func(int) (DurabilityHook, error) { return hook, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	e := s.CurrentEpoch()
	if h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "a", Functor: functor.Add(1)}}}); h.Version().Epoch() != e {
		t.Fatalf("a installed in epoch %d, want %d", h.Version().Epoch(), e)
	}
	s.Revoke(e, func() {})
	if h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "b", Functor: functor.Add(2)}}}); h.Version().Epoch() != e+1 {
		t.Fatalf("b installed in epoch %d, want %d", h.Version().Epoch(), e+1)
	}
	return c, e
}

// checkCommittedThrough: both epochs are visible, both writes readable and
// nothing of them is still buffered.
func checkCommittedThrough(t *testing.T, c *Cluster, e tstamp.Epoch) {
	t.Helper()
	s := c.Server(0)
	if got := s.CommittedEpoch(); got != e {
		t.Fatalf("committed epoch %d, want %d", got, e)
	}
	for _, w := range []struct {
		key  kv.Key
		want int64
	}{{"a", 1}, {"b", 2}} {
		if got, ok := readInt(t, c, 0, w.key); !ok || got != w.want {
			t.Errorf("%s = %d (found=%v), want %d", w.key, got, ok, w.want)
		}
	}
	if _, buffered := s.epochs.records(); len(buffered) != 0 {
		t.Errorf("epochs %v still buffer installs", buffered)
	}
}

// TestCommittedCoversDroppedEpoch: a Committed(e) that never arrives is
// covered by Committed(e+1), which seals and publishes e's installs with
// its own, rather than stranding them, and stamps e's journal record as
// committed, sealed, durable and visible.
func TestCommittedCoversDroppedEpoch(t *testing.T) {
	c, e := installTwoEpochs(t, failingMarker{failAt: tstamp.MaxEpoch})
	c.Server(0).Committed(e + 1)
	checkCommittedThrough(t, c, e+1)
	complete := map[uint64]bool{}
	for _, r := range c.Server(0).Journal().Snapshot() {
		complete[r.Epoch] = r.Complete() && r.SealNS > 0
	}
	for _, ep := range []tstamp.Epoch{e, e + 1} {
		if !complete[uint64(ep)] {
			t.Errorf("epoch %d's journal record is not complete: %v", ep, complete)
		}
	}
}

// TestCommittedDuringTurnWaitsForIt: a Committed(e+1) that arrives while
// e's turn waits on its marker publishes nothing of its own; the running
// turn commits e+1 after e, so End(e+1) is never visible before e is sealed
// and durable.
func TestCommittedDuringTurnWaitsForIt(t *testing.T) {
	hook := &gatedMarker{failingMarker: failingMarker{failAt: tstamp.MaxEpoch}, at: tstamp.MaxEpoch, entered: make(chan struct{}), gate: make(chan struct{})}
	c, e := installTwoEpochs(t, hook)
	hook.at = e
	s := c.Server(0)
	done := make(chan struct{})
	go func() {
		s.Committed(e)
		close(done)
	}()
	select {
	case <-hook.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("epoch's marker never written")
	}
	s.Committed(e + 1)
	if got := s.CommittedEpoch(); got >= e {
		t.Errorf("epoch %d visible while epoch %d's marker is being written", got, e)
	}
	close(hook.gate)
	<-done
	checkCommittedThrough(t, c, e+1)
}

// TestFailedMarkerKeepsNoEpochState: after a server's marker fails it keeps
// the records of the epochs still open and nothing of those the manager
// committed since.
func TestFailedMarkerKeepsNoEpochState(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Servers:           1,
		ManualEpochs:      true,
		DurabilityFactory: func(int) (DurabilityHook, error) { return failingMarker{failAt: 3}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	for s.CurrentEpoch() < 3+5 {
		mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "k", Functor: functor.Add(1)}}})
		mustAdvance(t, c)
	}
	if got := s.CommittedEpoch(); got != 2 {
		t.Fatalf("committed epoch %d, want 2", got)
	}
	held, _ := s.epochs.records()
	for _, e := range held {
		if e < s.CurrentEpoch() {
			t.Errorf("epoch %d keeps a record after its Committed (open epoch %d)", e, s.CurrentEpoch())
		}
	}
}
