package core_test

// Chaos wiring for the core cluster: these tests drive a real cluster
// through a fault-injecting transport (internal/chaos) and assert the
// engine's behavior at the API surface — fail-fast aborts under severed
// links and clean recovery after healing. The oracle-checked chaos
// scenarios are the catalog's chaos-* (internal/scenario/catalog).

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"alohadb/internal/chaos"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/transport"
)

// prefixPartitioner pins "s<i>:..." keys to server i so tests can aim
// writes at a specific partition.
func prefixPartitioner(k kv.Key, n int) int {
	for i := 0; i < n; i++ {
		if strings.HasPrefix(string(k), fmt.Sprintf("s%d:", i)) {
			return i
		}
	}
	return kv.PartitionOf(k, n)
}

func appendReg() *functor.Registry {
	reg := functor.NewRegistry()
	reg.MustRegister("append", func(fc *functor.Context) (*functor.Resolution, error) {
		prev := fc.Reads[fc.Key]
		out := make([]byte, 0, len(prev.Value)+len(fc.Arg))
		out = append(out, prev.Value...)
		out = append(out, fc.Arg...)
		return functor.ValueResolution(out), nil
	})
	return reg
}

func newChaosCluster(t *testing.T) (*core.Cluster, *chaos.Network) {
	t.Helper()
	// Probabilistic faults off: these tests inject deterministically via
	// Sever/Heal only.
	net := chaos.Wrap(transport.NewMemNetwork(), chaos.Config{Seed: 1})
	c, err := core.NewCluster(core.ClusterConfig{
		Servers:       3,
		EpochDuration: 5 * time.Millisecond,
		Registry:      appendReg(),
		Network:       net,
		Router:        placement.NewStatic(3, prefixPartitioner),
		AbortRetries:  3,
		SwitchTimeout: time.Second,
	})
	if err != nil {
		net.Close()
		t.Fatalf("cluster: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		net.Close()
	})
	return c, net
}

func appendTxn(tag string, keys ...kv.Key) core.Txn {
	txn := core.Txn{}
	for _, k := range keys {
		txn.Writes = append(txn.Writes, core.Write{Key: k, Functor: functor.User("append", []byte(tag+";"), nil)})
	}
	return txn
}

// TestChaosSeveredLinkFailsFast asserts that a transaction touching an
// unreachable partition aborts within the bounded retry budget instead of
// hanging, and reports the indeterminate outcome honestly.
func TestChaosSeveredLinkFailsFast(t *testing.T) {
	c, net := newChaosCluster(t)
	ctx := context.Background()
	// Both directions: installs 0->1 and abort retries 0->1 must fail.
	net.Sever(0, 1)
	net.Sever(1, 0)
	start := time.Now()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	results, _, err := c.Server(0).SubmitBatch(sctx, []core.Txn{appendTxn("lost", "s1:a")})
	cancel()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("SubmitBatch error: %v", err)
	}
	if !results[0].Aborted {
		t.Fatalf("txn against severed partition did not abort: %+v", results[0])
	}
	if !results[0].AbortIncomplete {
		t.Fatalf("abort acked by unreachable partition? %+v", results[0])
	}
	// Fail-fast: 3 retries with 1-2 ms backoff, not the 5 s caller budget.
	if elapsed > 2*time.Second {
		t.Fatalf("abort took %v; the retry budget should bound it well under the caller timeout", elapsed)
	}
}

// TestChaosPartitionAbortRollsBackLocalHalf: when the remote half of a
// multi-partition transaction can't install, the local half must roll
// back too — a reader must never see the transaction's partial effects
// (epoch atomicity, paper §III-B).
func TestChaosPartitionAbortRollsBackLocalHalf(t *testing.T) {
	c, net := newChaosCluster(t)
	ctx := context.Background()
	// Seed a baseline value on the local partition.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	results, _, err := c.Server(0).SubmitBatch(sctx, []core.Txn{appendTxn("base", "s0:k")})
	cancel()
	if err != nil || results[0].Aborted {
		t.Fatalf("baseline txn failed: err=%v res=%+v", err, results[0])
	}
	net.Sever(0, 2)
	net.Sever(2, 0)
	sctx, cancel = context.WithTimeout(ctx, 5*time.Second)
	results, _, err = c.Server(0).SubmitBatch(sctx, []core.Txn{appendTxn("torn", "s0:k", "s2:k")})
	cancel()
	if err != nil {
		t.Fatalf("SubmitBatch error: %v", err)
	}
	if !results[0].Aborted {
		t.Fatalf("txn with unreachable peer did not abort: %+v", results[0])
	}
	net.HealAll()
	// Let the write's epoch close: same-epoch snapshots can order before
	// the write (decentralized timestamps), so read from a later epoch.
	time.Sleep(15 * time.Millisecond)
	// The local install of "torn" was rolled back by the second-round
	// abort (server 0 was always reachable from itself), so readers skip
	// it: only the baseline remains.
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	v, found, err := c.Server(1).Get(rctx, "s0:k")
	cancel()
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if !found || string(v) != "base;" {
		t.Fatalf("s0:k = %q (found=%v), want %q — aborted txn's local half leaked", v, found, "base;")
	}
}

// TestChaosHealRestoresService: after HealAll, previously failing
// cross-partition transactions commit and are readable everywhere.
func TestChaosHealRestoresService(t *testing.T) {
	c, net := newChaosCluster(t)
	ctx := context.Background()
	net.Sever(0, 1)
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	results, _, err := c.Server(0).SubmitBatch(sctx, []core.Txn{appendTxn("during", "s1:h")})
	cancel()
	if err != nil || !results[0].Aborted {
		t.Fatalf("expected abort while severed: err=%v res=%+v", err, results[0])
	}
	net.HealAll()
	sctx, cancel = context.WithTimeout(ctx, 5*time.Second)
	results, _, err = c.Server(0).SubmitBatch(sctx, []core.Txn{appendTxn("after", "s1:h")})
	cancel()
	if err != nil || results[0].Aborted {
		t.Fatalf("txn after heal failed: err=%v res=%+v", err, results[0])
	}
	// Read from a later epoch than the write's (same-epoch snapshots can
	// order before it).
	time.Sleep(15 * time.Millisecond)
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	v, _, err := c.Server(2).Get(rctx, "s1:h")
	cancel()
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if got := string(v); got != "after;" {
		t.Fatalf("s1:h = %q, want %q", got, "after;")
	}
}
