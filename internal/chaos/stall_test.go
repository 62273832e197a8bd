package chaos

import (
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/epoch"
	"alohadb/internal/functor"
	"alohadb/internal/obs"
	"alohadb/internal/transport"
)

// countEvents counts the watchdog's retained events of one kind.
func countEvents(wd *obs.Watchdog, kind string) int {
	n := 0
	for _, ev := range wd.Status().Events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestChaosWatchdogStall is the partition-stall drill of the quick suite:
// a 3-server cluster driven by a remote epoch manager, with node 2 severed
// from everyone mid-run. The epoch manager blocks each switch on node 2's
// revoke ack until SwitchTimeout, so node 0's visibility bound stops
// advancing — its watchdog must detect the stall within the threshold
// period and the captured snapshot must name node 2 as the unreachable
// peer. After HealAll the stall must clear and stay cleared, without any
// restart. Deterministic: fixed seed, no probabilistic faults — the only
// injected fault is the explicit partition.
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
		// switch stalls this long, comfortably past the watchdog threshold,
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

	wd := srvs[0].NewWatchdog(obs.WatchdogConfig{Threshold: threshold})
	if wd == nil {
		t.Fatal("NewWatchdog returned nil")
	}
	wd.Start()
	defer wd.Stop()

	if err := em.Manager.Run(); err != nil {
		t.Fatal(err)
	}

	waitFor := func(what string, deadline time.Duration, cond func() bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for !cond() {
			if time.Now().After(end) {
				t.Fatalf("timed out waiting for %s (events: %+v)", what, wd.Status().Events)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Healthy phase: epochs commit on the 10ms timer, no stall.
	waitFor("initial progress", 5*time.Second, func() bool { return srvs[0].CommittedEpoch() >= 3 })
	if wd.Active() {
		t.Fatal("watchdog active while the cluster is healthy")
	}

	// Partition node 2 from every other node, both directions (the EM is
	// node 3 by the address-book convention).
	for _, peer := range []transport.NodeID{0, 1, 3} {
		net.Sever(2, peer)
		net.Sever(peer, 2)
	}

	// The next epoch switch wedges on node 2's ack; node 0's watchdog must
	// fire within one threshold period of the progress age crossing it
	// (generous deadline for loaded CI machines).
	waitFor("stall detection", 5*time.Second, func() bool { return countEvents(wd, obs.EventStallDetected) > 0 })

	snaps := wd.Status().Snapshots
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
		return countEvents(wd, obs.EventStallCleared) > 0 && !wd.Active()
	})

	// Quiet period: detect/clear may flap while severed (each switch stalls
	// for SwitchTimeout, then progress jumps); after healing it must go
	// quiet. Require several consecutive healthy samples with advancing
	// commits and no new detections (the episode count, since the event
	// ring keeps only the newest events).
	waitFor("post-heal quiet period", 10*time.Second, func() bool {
		detectedBefore := wd.Stalls()
		epochBefore := srvs[0].CommittedEpoch()
		for i := 0; i < 3; i++ {
			time.Sleep(50 * time.Millisecond)
			if wd.Active() || wd.Stalls() != detectedBefore {
				return false
			}
		}
		return srvs[0].CommittedEpoch() > epochBefore
	})

	status := wd.Status()
	if status.Active {
		t.Error("watchdog still active after heal")
	}
	if status.StallsTotal == 0 {
		t.Error("StallsTotal not incremented")
	}
}
