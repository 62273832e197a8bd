package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"alohadb/internal/obs/journal"
)

// TestEpochSlot walks one epoch's slot through the orders in which a
// reservation (r), its release (d), the revoke (v) and Committed (c) can
// meet on a front-end, and counts the revoke's acks and the ack waits the
// journal closed. An epoch whose switch went on without the ack still
// records its wait, revoke → commit.
func TestEpochSlot(t *testing.T) {
	for _, tc := range []struct {
		name     string
		steps    string
		acks     int32
		ackWaits uint64
	}{
		{"revoke with nothing open acks at once", "v", 1, 0},
		{"reserve then revoke parks the ack", "rv", 0, 0},
		{"the release acks exactly once", "rvd", 1, 0},
		{"a release with another open does not ack", "rrvd", 0, 0},
		{"the last release acks", "rrvdd", 1, 0},
		{"a release after Committed took the slot is a no-op", "rvcd", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 1, -1)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			s := c.Server(0)
			e := s.CurrentEpoch()
			var acks atomic.Int32
			for _, step := range tc.steps {
				switch step {
				case 'r':
					if got, err := s.beginTxn(1); err != nil || got != e {
						t.Fatalf("beginTxn = %d, %v; want epoch %d", got, err, e)
					}
				case 'd':
					s.endTxn(e)
				case 'v':
					s.Revoke(e, func() { acks.Add(1) })
				case 'c':
					s.Committed(e)
				}
			}
			if got := acks.Load(); got != tc.acks {
				t.Fatalf("steps %q: %d acks, want %d", tc.steps, got, tc.acks)
			}
			if got := s.journal.StageHist(journal.StageAckWait).Snapshot().Count; got != tc.ackWaits {
				t.Fatalf("steps %q: %d ack waits journaled, want %d", tc.steps, got, tc.ackWaits)
			}
		})
	}
}

// TestEpochSlotRaceRevoke races a reservation against the revoke of the
// epoch the generator targets. Whichever takes the lock first, a
// reservation that got epoch e must not see e's ack before it is released
// (§III-B: every transaction that took e finishes before e's revoke is
// acked); one that got e+1 is the straggler path (§III-C). Run it under
// -race too.
func TestEpochSlotRaceRevoke(t *testing.T) {
	c := newTestCluster(t, 1, -1)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	for i := 0; i < 20000; i++ {
		e := s.CurrentEpoch()
		// A reservation opened and released first: the revoke finds e's
		// slot in place.
		if got, err := s.beginTxn(1); err != nil {
			t.Fatal(err)
		} else {
			s.endTxn(got)
		}
		ack := make(chan struct{})
		revoked := make(chan struct{})
		var ready, gate atomic.Bool
		go func() {
			ready.Store(true)
			for !gate.Load() {
				runtime.Gosched()
			}
			s.Revoke(e, func() { close(ack) })
			close(revoked)
		}()
		for !ready.Load() {
			runtime.Gosched()
		}
		// Both sides are running: release the revoke, then reserve after a
		// delay that sweeps the window in which the two meet.
		gate.Store(true)
		for j := 0; j < i%64; j++ {
			_ = gate.Load()
		}
		got, err := s.beginTxn(1)
		if err != nil {
			t.Fatal(err)
		}
		<-revoked
		if got == e {
			select {
			case <-ack:
				t.Fatalf("iteration %d: epoch %d acked while a reservation of it was open", i, e)
			default:
			}
		}
		s.endTxn(got)
		<-ack
		s.Committed(e)
	}
}
