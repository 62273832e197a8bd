package wal

import (
	"context"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/epoch"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/transport"
)

// TestFullDeploymentOverTCP assembles the production shape end to end:
// three servers over real TCP sockets, a remote epoch manager driving the
// grant/revoke/commit protocol as messages, WAL durability on every
// server, and a remote client using the client protocol — followed by a
// crash and a log-based recovery check.
func TestFullDeploymentOverTCP(t *testing.T) {
	core.RegisterMessages()
	dir := t.TempDir()
	const servers = 3
	const emID = transport.NodeID(servers)
	const clientID = transport.NodeID(100)

	addrs := make(map[transport.NodeID]string)
	for i := 0; i <= servers; i++ {
		addrs[transport.NodeID(i)] = "127.0.0.1:0"
	}
	addrs[clientID] = "127.0.0.1:0"
	net := transport.NewTCPNetwork(addrs)
	defer net.Close()

	reg := functor.NewRegistry()
	var srvs []*core.Server
	for i := 0; i < servers; i++ {
		log, err := Open(LogPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		s, err := core.NewServer(core.ServerConfig{
			ID: i, NumServers: servers, Registry: reg, Durability: log,
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srvs = append(srvs, s)
	}
	em, err := core.NewEMNode(net, emID, []transport.NodeID{0, 1, 2}, epoch.Config{
		Duration:      5 * time.Millisecond,
		SwitchTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	if err := em.Manager.Run(); err != nil {
		t.Fatal(err)
	}

	// A remote client joins the mesh and drives the client protocol.
	cli, err := net.Node(clientID, func(context.Context, transport.NodeID, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Wait for the first grant to reach all servers: until then a snapshot
	// names epoch 0.
	granted := func(s *core.Server) bool {
		ts, err := s.Snapshot()
		return err == nil && ts.Epoch() != 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for !granted(srvs[0]) || !granted(srvs[2]) {
		if time.Now().After(deadline) {
			t.Fatal("servers never received an epoch grant")
		}
		time.Sleep(time.Millisecond)
	}

	submit := func(server transport.NodeID, key kv.Key, fn *functor.Functor) core.MsgClientSubmitResp {
		t.Helper()
		raw, err := cli.Call(ctx, server, core.MsgClientSubmit{
			Writes:       []core.Write{{Key: key, Functor: fn}},
			WaitComputed: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw.(core.MsgClientSubmitResp)
	}

	if resp := submit(0, "deploy:balance", functor.Value(kv.EncodeInt64(100))); resp.Aborted {
		t.Fatalf("put aborted: %s", resp.Reason)
	}
	for i := 0; i < 3; i++ {
		if resp := submit(transport.NodeID(i%servers), "deploy:balance", functor.Add(10)); resp.Aborted {
			t.Fatalf("add aborted: %s", resp.Reason)
		}
	}
	raw, err := cli.Call(ctx, 2, core.MsgClientGet{Key: "deploy:balance"})
	if err != nil {
		t.Fatal(err)
	}
	resp := raw.(core.MsgClientGetResp)
	if n, _ := kv.DecodeInt64(resp.Value); !resp.Found || n != 130 {
		t.Fatalf("balance = %d found=%v, want 130", n, resp.Found)
	}

	// Crash: stop the EM and servers, then recover the owner partition
	// from its WAL and verify the committed chain survived.
	em.Close()
	owner := srvs[0].Owner("deploy:balance")
	for _, s := range srvs {
		s.Close()
	}
	store, last, err := Recover(LogPath(dir, owner))
	if err != nil {
		t.Fatal(err)
	}
	if last == 0 {
		t.Fatal("no committed epoch recovered")
	}
	view := store.View("deploy:balance")
	if len(view) != 4 { // the VALUE plus three ADDs
		t.Fatalf("recovered %d versions, want 4", len(view))
	}
}
