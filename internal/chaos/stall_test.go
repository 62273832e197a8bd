package chaos

import (
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/epoch"
	"alohadb/internal/functor"
	"alohadb/internal/obs/tsdb"
	"alohadb/internal/transport"
)

// countEpisodes counts the recorder's retained stall episodes: all of
// them, or only the closed ones.
func countEpisodes(rec *tsdb.Recorder, closed bool) int {
	n := 0
	for _, a := range rec.Doc().Annotations {
		if a.Kind == tsdb.AnomalyStall && (!closed || !a.Active) {
			n++
		}
	}
	return n
}

// TestChaosWatchdogStall is the partition-stall drill of the quick suite:
// a 3-server cluster driven by a remote epoch manager, with node 2 severed
// from everyone mid-run. The epoch manager blocks each switch on node 2's
// revoke ack until SwitchTimeout, so node 0's visibility bound stops
// advancing — its recorder's stall rule must detect the stall within the
// threshold period and the captured snapshot must name node 2 as the
// unreachable peer. After HealAll the stall must clear and stay cleared,
// without any restart. Deterministic: fixed seed, no probabilistic faults
// — the only injected fault is the explicit partition.
func TestChaosWatchdogStall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	core.RegisterMessages()
	net := Wrap(transport.NewMemNetwork(), Config{Seed: 42})
	defer net.Close()

	const servers = 3
	const (
		epochDuration = 10 * time.Millisecond
		// SwitchTimeout is the EM's straggler escape hatch: each severed
		// switch stalls this long, comfortably past the stall threshold,
		// before the EM proceeds without node 2's ack.
		switchTimeout = 300 * time.Millisecond
		threshold     = 100 * time.Millisecond
	)
	reg := functor.NewRegistry()
	srvs := make([]*core.Server, servers)
	for i := 0; i < servers; i++ {
		s, err := core.NewServer(core.ServerConfig{ID: i, NumServers: servers, Registry: reg}, net)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srvs[i] = s
	}
	em, err := core.NewEMNode(net, transport.NodeID(servers), []transport.NodeID{0, 1, 2},
		epoch.Config{Duration: epochDuration, SwitchTimeout: switchTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()

	rec := srvs[0].NewRecorder(tsdb.Config{StallThreshold: threshold})
	if rec.StallStatus() == nil {
		t.Fatal("NewRecorder built no stall rule")
	}
	rec.Start()
	defer rec.Stop()

	if err := em.Manager.Run(); err != nil {
		t.Fatal(err)
	}

	waitFor := func(what string, deadline time.Duration, cond func() bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for !cond() {
			if time.Now().After(end) {
				t.Fatalf("timed out waiting for %s (annotations: %+v)", what, rec.Doc().Annotations)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Healthy phase: epochs commit on the 10ms timer, no stall.
	waitFor("initial progress", 5*time.Second, func() bool { return srvs[0].CommittedEpoch() >= 3 })
	if rec.StallActive() {
		t.Fatal("stall active while the cluster is healthy")
	}

	// Partition node 2 from every other node, both directions (the EM is
	// node 3 by the address-book convention).
	for _, peer := range []transport.NodeID{0, 1, 3} {
		net.Sever(2, peer)
		net.Sever(peer, 2)
	}

	// The next epoch switch wedges on node 2's ack; node 0's recorder must
	// fire within one threshold period of the progress age crossing it
	// (generous deadline for loaded CI machines).
	waitFor("stall detection", 5*time.Second, func() bool { return countEpisodes(rec, false) > 0 })

	snaps := rec.StallStatus().Snapshots
	if len(snaps) == 0 {
		t.Fatal("stall detected but no snapshot captured")
	}
	snap := snaps[len(snaps)-1]
	found := false
	for _, p := range snap.UnreachablePeers {
		if p == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("stall snapshot does not name severed node 2: unreachable=%v peers=%+v",
			snap.UnreachablePeers, snap.Peers)
	}
	if snap.Age < threshold {
		t.Errorf("snapshot age %v below threshold %v", snap.Age, threshold)
	}

	// Heal. The EM's SwitchTimeout means it kept advancing (and re-revoking)
	// during the partition, so the next switch after healing reaches node 2
	// and the cluster returns to the fast cadence — the stall must clear and
	// stay cleared without restarting anything.
	net.HealAll()
	waitFor("stall cleared", 5*time.Second, func() bool {
		return countEpisodes(rec, true) > 0 && !rec.StallActive()
	})

	// Quiet period: detect/clear may flap while severed (each switch stalls
	// for SwitchTimeout, then progress jumps); after healing it must go
	// quiet. Require several consecutive healthy samples with advancing
	// commits and no new detections (the episode count, since the
	// annotation ring keeps only the newest episodes).
	waitFor("post-heal quiet period", 10*time.Second, func() bool {
		detectedBefore := rec.StallStatus().StallsTotal
		epochBefore := srvs[0].CommittedEpoch()
		for i := 0; i < 3; i++ {
			time.Sleep(50 * time.Millisecond)
			if rec.StallActive() || rec.StallStatus().StallsTotal != detectedBefore {
				return false
			}
		}
		return srvs[0].CommittedEpoch() > epochBefore
	})

	status := rec.StallStatus()
	if status.Active {
		t.Error("stall still active after heal")
	}
	if status.StallsTotal == 0 {
		t.Error("StallsTotal not incremented")
	}
}
