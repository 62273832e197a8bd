package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// failingMarker is a durability hook whose epoch marker fails from epoch
// failAt on, as a log's sticky write error makes every later marker fail.
type failingMarker struct{ failAt tstamp.Epoch }

func (failingMarker) LogInstall(tstamp.Timestamp, kv.Key, *functor.Functor) error { return nil }
func (failingMarker) LogAbort(tstamp.Timestamp, []kv.Key) error                   { return nil }
func (failingMarker) LastSyncAge() (time.Duration, bool)                          { return 0, false }

func (h failingMarker) LogEpochCommitted(_ context.Context, e tstamp.Epoch) error {
	if e >= h.failAt {
		return errors.New("marker write failed")
	}
	return nil
}

// TestFailedMarkerStopsCommit: once a server's epoch marker fails, that
// epoch and every later one stay invisible on it, since recovery would roll
// them back; a server whose markers succeed keeps committing.
func TestFailedMarkerStopsCommit(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		DurabilityFactory: func(id int) (DurabilityHook, error) {
			if id == 0 {
				return failingMarker{failAt: 3}, nil
			}
			return failingMarker{failAt: tstamp.MaxEpoch}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Epochs 1 and 2 commit, epoch 3's marker fails on server 0, and two
	// more epochs pass.
	for e := tstamp.Epoch(1); e <= 5; e++ {
		if _, err := c.AdvanceEpoch(); err != nil {
			t.Fatalf("advance past epoch %d: %v", e, err)
		}
	}
	if got := c.Server(0).CommittedEpoch(); got != 2 {
		t.Errorf("server 0 committed epoch %d after its epoch-3 marker failed, want 2", got)
	}
	if got := c.Server(1).CommittedEpoch(); got != 5 {
		t.Errorf("server 1 committed epoch %d, want 5", got)
	}
}
