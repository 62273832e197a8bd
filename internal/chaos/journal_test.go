package chaos

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/epoch"
	"alohadb/internal/functor"
	"alohadb/internal/obs/clusterview"
	"alohadb/internal/obs/journal"
	"alohadb/internal/transport"
)

// TestChaosAckDelayCriticalPath is the critical-path attribution drill of
// the quick suite: a 3-server cluster driven by a remote epoch manager,
// with server 2's revoke-ack link (2 -> EM node 3) carrying a fixed chaos
// delay. Every epoch switch therefore waits ~delay on server 2's ack, and
// the merged cluster-wide critical path must name server 2 and the
// ack-wait stage for at least 90% of the committed epochs — the
// acceptance criterion of the epoch journal. Deterministic: fixed seed,
// zero probabilistic faults, the only injected fault is the link delay.
func TestChaosAckDelayCriticalPath(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	core.RegisterMessages()
	net := Wrap(transport.NewMemNetwork(), Config{Seed: 7})
	defer net.Close()

	const (
		servers  = 3
		ackDelay = 25 * time.Millisecond
		epochs   = 12
	)
	// Delay only the ack direction: server 2 -> EM (node 3). Revokes and
	// Committed broadcasts reach server 2 undelayed, so nothing but the
	// ack-wait stage can absorb the injected latency.
	net.DelayLink(2, transport.NodeID(servers), ackDelay)

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
	em, err := core.NewEMNode(net, transport.NodeID(servers), []transport.NodeID{0, 1, 2}, epoch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	if err := em.Manager.Start(); err != nil {
		t.Fatal(err)
	}

	// Drive the switches manually: each Advance blocks on the delayed ack,
	// so the loop itself paces the run (~epochs × ackDelay total).
	for i := 0; i < epochs; i++ {
		if _, err := em.Manager.Advance(); err != nil {
			t.Fatal(err)
		}
	}

	// Committed broadcasts ride one-way sends; wait for every server to
	// finish publishing the final epoch before snapshotting the journals.
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, s := range srvs {
			if uint64(s.CommittedEpoch()) < epochs {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("servers never committed epoch %d (committed: %d %d %d)",
				epochs, srvs[0].CommittedEpoch(), srvs[1].CommittedEpoch(), srvs[2].CommittedEpoch())
		}
		time.Sleep(2 * time.Millisecond)
	}

	docs := make([]journal.Doc, 0, servers+1)
	for _, s := range srvs {
		docs = append(docs, epochsDoc(t, s))
	}
	docs = append(docs, journal.Doc{EM: em.Manager.Journal().Snapshot()})
	paths := clusterview.MergeEpochs(docs...)
	if len(paths) == 0 {
		t.Fatal("no attributed epochs from the merged journals")
	}

	attributed := 0
	for _, p := range paths {
		if p.GatingServer == 2 && p.GatingStage == "ack-wait" {
			attributed++
		}
	}
	// ≥90% of the delayed epochs must name server 2's ack-wait; the 25ms
	// injected delay dwarfs every other stage (all µs-scale in-memory).
	if min := (len(paths)*9 + 9) / 10; attributed < min {
		t.Fatalf("critical path named server 2 ack-wait for %d/%d epochs (need %d): %+v",
			attributed, len(paths), min, paths)
	}

	// The EM mirror must show server 2 as the last ack on those epochs.
	for _, r := range em.Manager.Journal().Snapshot() {
		if n := len(r.AckOrder); n == servers && r.AckOrder[n-1] != 2 {
			t.Errorf("epoch %d ack order %v: delayed server 2 should ack last", r.Epoch, r.AckOrder)
		}
	}
}

// epochsDoc reads a server's epoch journal off its operator surface, as
// aloha-top does.
func epochsDoc(t *testing.T, s *core.Server) journal.Doc {
	t.Helper()
	rec := httptest.NewRecorder()
	core.OpsHandler(core.Ops{Server: s}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/epochs", nil))
	var d journal.Doc
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("/debug/epochs: %v (%d %q)", err, rec.Code, rec.Body.String())
	}
	return d
}
