package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"alohadb/internal/epoch"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// TestSerializabilityEquivalence is the core correctness property: running
// a random mix of non-commutative transactions through the full concurrent
// cluster must yield, for every key, exactly the value a sequential replay
// in timestamp order yields. Append is order-sensitive, so any
// serializability violation (lost write, reordering, torn multi-key
// transaction) changes the bytes.
func TestSerializabilityEquivalence(t *testing.T) {
	const (
		servers = 4
		keys    = 8
		writers = 8
		perW    = 50
	)
	c, err := NewCluster(ClusterConfig{
		Servers:       servers,
		EpochDuration: 3 * time.Millisecond,
		Registry:      testRegistry(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allKeys := make([]kv.Key, keys)
	for i := range allKeys {
		allKeys[i] = kv.Key(fmt.Sprintf("k%d", i))
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	type op struct {
		version tstamp.Timestamp
		key     kv.Key
		arg     byte
	}
	var (
		mu  sync.Mutex
		ops []op
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				arg := byte('a' + rng.Intn(26))
				// Mix single-key and two-key transactions.
				nWrites := 1 + rng.Intn(2)
				seen := map[kv.Key]bool{}
				var writes []Write
				for len(writes) < nWrites {
					k := allKeys[rng.Intn(keys)]
					if seen[k] {
						continue
					}
					seen[k] = true
					writes = append(writes, Write{
						Key:     k,
						Functor: functor.User("append", []byte{arg}, nil),
					})
				}
				h, err := c.Server(rng.Intn(servers)).Submit(ctx, Txn{Writes: writes})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if aborted, reason := h.Installed(); aborted {
					t.Errorf("unexpected abort: %s", reason)
					return
				}
				mu.Lock()
				for _, wr := range writes {
					ops = append(ops, op{version: h.Version(), key: wr.Key, arg: arg})
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Let the final epoch commit and all functors compute.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().FunctorsComputed < c.Stats().FunctorsInstalled {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Force epoch advancement past the last write, then read committed.
	time.Sleep(3 * epochSettle)

	// Sequential replay in timestamp order.
	sort.Slice(ops, func(i, j int) bool { return ops[i].version < ops[j].version })
	want := make(map[kv.Key][]byte)
	versionsSeen := make(map[tstamp.Timestamp]bool)
	for _, o := range ops {
		want[o.key] = append(want[o.key], o.arg)
		versionsSeen[o.version] = true
	}
	if len(versionsSeen) != writers*perW {
		t.Fatalf("expected %d unique versions, got %d", writers*perW, len(versionsSeen))
	}
	for _, k := range allKeys {
		v, found, err := c.Server(0).Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(want[k]) == 0 {
			if found {
				t.Errorf("%s: unexpectedly found %q", k, v)
			}
			continue
		}
		if !found {
			t.Errorf("%s: missing (want %d bytes)", k, len(want[k]))
			continue
		}
		if !bytes.Equal(v, want[k]) {
			t.Errorf("%s: engine produced %q, sequential replay %q", k, v, want[k])
		}
	}
}

const epochSettle = 10 * time.Millisecond

// TestClusterOverTCP runs the full engine across the TCP transport:
// installs, remote reads, pushes, aborts and scans as frames on real
// sockets.
func TestClusterOverTCP(t *testing.T) {
	RegisterMessages()
	const servers = 3
	addrs := make(map[transport.NodeID]string, servers)
	for i := 0; i < servers; i++ {
		addrs[transport.NodeID(i)] = "127.0.0.1:0"
	}
	net := transport.NewTCPNetwork(addrs)
	defer net.Close()
	c, err := NewCluster(ClusterConfig{
		Servers:      servers,
		ManualEpochs: true,
		Registry:     testRegistry(t),
		Network:      net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load([]kv.Pair{
		{Key: "acct:a", Value: kv.EncodeInt64(500)},
		{Key: "acct:b", Value: kv.EncodeInt64(500)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A cross-partition conditional transfer, with a remote read and a
	// recipient push across real sockets.
	h, err := c.Server(0).Submit(ctx, Txn{Writes: []Write{
		{Key: "acct:a", Functor: functor.User("xfer-out", kv.EncodeInt64(100), nil,
			functor.WithRecipients("acct:b"))},
		{Key: "acct:b", Functor: functor.User("xfer-in", xferInArg("acct:a", 100), []kv.Key{"acct:a"})},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	committed, reason, err := h.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatalf("transfer aborted: %s", reason)
	}
	for _, tt := range []struct {
		key  kv.Key
		want int64
	}{{"acct:a", 400}, {"acct:b", 600}} {
		v, found, err := c.Server(2).GetCommitted(ctx, tt.key)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := kv.DecodeInt64(v)
		if !found || n != tt.want {
			t.Errorf("%s = %d found=%v, want %d", tt.key, n, found, tt.want)
		}
	}
	// An aborting transfer over TCP.
	h2, err := c.Server(1).Submit(ctx, Txn{Writes: []Write{
		{Key: "acct:a", Functor: functor.User("xfer-out", kv.EncodeInt64(1_000_000), nil)},
		{Key: "acct:b", Functor: functor.User("xfer-in", xferInArg("acct:a", 1_000_000), []kv.Key{"acct:a"})},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	committed, _, err = h2.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Error("over-withdrawal should abort")
	}
	// A scan from every server: two keys over three partitions, so at
	// least one scanner owns neither and gets every pair off a socket.
	snap, err := c.Server(0).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	for id := 0; id < servers; id++ {
		got, err := c.Server(id).ScanPrefix(ctx, "acct:", snap)
		if err != nil {
			t.Fatalf("scan from server %d: %v", id, err)
		}
		a, _ := kv.DecodeInt64(got["acct:a"])
		b, _ := kv.DecodeInt64(got["acct:b"])
		if len(got) != 2 || a != 400 || b != 600 {
			t.Errorf("scan from server %d = %v, want acct:a=400 acct:b=600", id, got)
		}
	}
}

// TestRemoteEpochManager drives a cluster through the EM-over-transport
// protocol path (MsgGrant/MsgRevoke/MsgRevokeAck/MsgCommitted).
func TestRemoteEpochManager(t *testing.T) {
	RegisterMessages()
	memNet := transport.NewMemNetwork()
	defer memNet.Close()
	const servers = 2
	reg := testRegistry(t)
	var srvs []*Server
	for i := 0; i < servers; i++ {
		s, err := NewServer(ServerConfig{ID: i, NumServers: servers, Registry: reg}, memNet)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srvs = append(srvs, s)
	}
	em, err := NewEMNode(memNet, transport.NodeID(servers), []transport.NodeID{0, 1}, epoch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	if err := em.Manager.Start(); err != nil {
		t.Fatal(err)
	}
	waitEpoch := func(e tstamp.Epoch) {
		deadline := time.Now().Add(2 * time.Second)
		for srvs[0].gen.Epoch() < e || srvs[1].gen.Epoch() < e {
			if time.Now().After(deadline) {
				t.Fatalf("servers never reached epoch %d", e)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitEpoch(1)
	ctx := context.Background()
	h, err := srvs[0].Submit(ctx, Txn{Writes: []Write{
		{Key: "k", Functor: functor.Value(kv.Value("via-remote-em"))},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.Manager.Advance(); err != nil {
		t.Fatal(err)
	}
	committed, reason, err := h.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatalf("aborted: %s", reason)
	}
	// Await saw the epoch commit on server 0; the manager's Committed
	// message reaches server 1 on its own, and GetCommitted reads at
	// whatever that server has committed so far.
	for deadline := time.Now().Add(2 * time.Second); srvs[1].CommittedEpoch() < h.Version().Epoch(); {
		if time.Now().After(deadline) {
			t.Fatalf("server 1 never committed epoch %d", h.Version().Epoch())
		}
		time.Sleep(time.Millisecond)
	}
	v, found, err := srvs[1].GetCommitted(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "via-remote-em" {
		t.Errorf("read %q found=%v", v, found)
	}
}

// TestEMNodeDeadServerKeepsOneAck advances a remote epoch manager 200 times
// past a server that never acks: its outstanding revoke acks must not pile
// up one per epoch.
func TestEMNodeDeadServerKeepsOneAck(t *testing.T) {
	RegisterMessages()
	memNet := transport.NewMemNetwork()
	defer memNet.Close()
	live, err := NewServer(ServerConfig{ID: 0, NumServers: 2}, memNet)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// Node 1 never attaches: its revokes go nowhere.
	em, err := NewEMNode(memNet, 2, []transport.NodeID{0, 1}, epoch.Config{SwitchTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	if err := em.Manager.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := em.Manager.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	em.acks.mu.Lock()
	n := len(em.acks.acks)
	em.acks.mu.Unlock()
	if n > 2 {
		t.Errorf("%d outstanding revoke acks after 200 switches, want at most one per server", n)
	}
}

// TestSelfReadThroughPredecessorRun extends the equivalence property to
// what a functor reads below itself on its own key: every order of an
// ABORTED, a SKIPPED, a DELETED and a VALUE record, all of one epoch and
// none resolved when the epoch commits, followed by two appends. ABORTED
// and SKIPPED are read through, DELETED reads as absent, VALUE as its
// value — the sequential replay of the same run decides what is expected.
// Run once with processors (the queued walk) and once without (the walk a
// read triggers).
func TestSelfReadThroughPredecessorRun(t *testing.T) {
	kinds := []string{"aborted", "skipped", "deleted", "value"}
	var orders [][]string
	var permute func(done, rest []string)
	permute = func(done, rest []string) {
		if len(rest) == 0 {
			orders = append(orders, append([]string(nil), done...))
			return
		}
		for i := range rest {
			next := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			permute(append(done, rest[i]), next)
		}
	}
	permute(nil, kinds)

	for _, workers := range []int{2, -1} {
		reg := testRegistry(t)
		// A determinate functor that names a dependent key and writes
		// nothing to it: the key's marker resolves SKIPPED.
		reg.MustRegister("det", func(*functor.Context) (*functor.Resolution, error) {
			return functor.ValueResolution(kv.EncodeInt64(1)), nil
		})
		c, err := NewCluster(ClusterConfig{Servers: 2, ManualEpochs: true, Registry: reg, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		want := make(map[kv.Key]string)
		for i, order := range orders {
			k := kv.Key(fmt.Sprintf("run:%02d", i))
			have := ""
			for _, kind := range order {
				switch kind {
				case "aborted":
					h := mustSubmit(t, c, i%2, Txn{
						Writes:   []Write{{Key: k, Functor: functor.Value(kv.Value("poison"))}},
						Requires: []kv.Key{"missing"},
					})
					if aborted, _ := h.Installed(); !aborted {
						t.Fatal("expected a phase-1 abort")
					}
				case "skipped":
					mustSubmit(t, c, i%2, Txn{Writes: []Write{{
						Key:     kv.Key(fmt.Sprintf("det:%02d", i)),
						Functor: functor.User("det", nil, nil, functor.WithDependentKeys(k)),
					}}})
				case "deleted":
					mustSubmit(t, c, i%2, Txn{Writes: []Write{{Key: k, Functor: functor.Deleted()}}})
					have = ""
				case "value":
					mustSubmit(t, c, i%2, Txn{Writes: []Write{{Key: k, Functor: functor.Value(kv.Value("v"))}}})
					have = "v"
				}
			}
			for _, arg := range []string{"x", "y"} {
				mustSubmit(t, c, i%2, Txn{Writes: []Write{{Key: k, Functor: functor.User("append", []byte(arg), nil)}}})
				have += arg
			}
			want[k] = have
		}
		mustAdvance(t, c)
		for k, w := range want {
			v, found, err := c.Server(0).GetCommitted(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			if !found || string(v) != w {
				t.Errorf("workers=%d %s: engine produced %q found=%v, sequential replay %q", workers, k, v, found, w)
			}
		}
		c.Close()
	}
}
