package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/tstamp"
)

// TestDeadPartitionFailsFast: when a partition dies, operations touching
// it return errors rather than hanging, and operations confined to the
// surviving partitions keep working (crash-stop degradation; recovery is
// internal/wal's job).
func TestDeadPartitionFailsFast(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Registry:     functor.NewRegistry(),
		Router: placement.NewStatic(2, func(k kv.Key, n int) int {
			if len(k) > 0 && k[0] == 'd' {
				return 1 // the partition we will kill
			}
			return 0
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load([]kv.Pair{
		{Key: "alive", Value: kv.Value("a")},
		{Key: "dead", Value: kv.Value("d")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Kill partition 1.
	if err := c.Server(1).Close(); err != nil {
		t.Fatal(err)
	}

	// Writes and reads to the dead partition fail fast with an error.
	res, _, err := c.Server(0).SubmitBatch(ctx, []Txn{{Writes: []Write{
		{Key: "dead", Functor: functor.Value(kv.Value("x"))},
	}}})
	if err != nil {
		t.Fatalf("SubmitBatch returned a hard error: %v", err)
	}
	if !res[0].Aborted {
		t.Error("write to dead partition did not abort")
	}
	if _, _, err := c.Server(0).GetCommitted(ctx, "dead"); err == nil {
		t.Error("read of dead partition should error")
	}

	// The surviving partition still serves local transactions. The epoch
	// manager's revoke to the dead server can never ack, so drive
	// visibility with the straggler-tolerant switch path: use a
	// SwitchTimeout-less manual advance in a goroutine and rely on the
	// revoke ack of the dead participant being the direct (non-transport)
	// call, which still fires because the embedded cluster registers
	// servers directly.
	if _, err := c.Server(0).Submit(ctx, Txn{Writes: []Write{
		{Key: "alive", Functor: functor.Value(kv.Value("updated"))},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Server(0).GetCommitted(ctx, "alive")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "updated" {
		t.Errorf("alive = %q found=%v", v, found)
	}
}

// TestDeadPartitionFailsBatchedReadsFast: reads in flight in the combiner
// when their owner dies must all complete quickly with errors — the
// dispatch fails once and fans the error to every waiter, rather than each
// op hanging on its own timeout.
func TestDeadPartitionFailsBatchedReadsFast(t *testing.T) {
	c, capture := newCombinerCluster(t)
	const n = 8
	pairs := make([]kv.Pair, n)
	for i := range pairs {
		pairs[i] = kv.Pair{Key: kv.Key(fmt.Sprintf("bk%d", i)), Value: kv.Value("v")}
	}
	if err := c.Load(pairs); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, _, err := c.Server(0).GetCommitted(ctx, "bk0"); err != nil {
		t.Fatalf("warm read: %v", err)
	}
	// The reads below leave their former and wait at the sender, so the
	// owner dies while every one of them is in flight.
	release := capture.hold()
	start := time.Now()
	type outcome struct{ err error }
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := c.Server(0).GetCommitted(ctx, pairs[i].Key)
			outcomes[i].err = err
		}(i)
	}
	// Kill the owner while the fetches are held.
	time.Sleep(10 * time.Millisecond)
	if err := c.Server(1).Close(); err != nil {
		t.Fatal(err)
	}
	release()
	wg.Wait()
	elapsed := time.Since(start)

	// Fast: the fetch fails at dispatch, so everything resolves at once —
	// nowhere near the 10 s caller budget.
	if elapsed > 2*time.Second {
		t.Errorf("queued reads took %v to resolve after owner death", elapsed)
	}
	// Every read was in flight when the owner died, so every one must have
	// errored.
	for i, o := range outcomes {
		if o.err == nil {
			t.Errorf("read %d queued at owner death returned nil error", i)
		}
	}
	if got := capture.count(MsgFetch{}); got < 2 {
		t.Error("no MsgFetch dispatched while the owner died — test tested nothing")
	}

	// Ensures bound for the dead owner fail fast through the same path.
	es := time.Now()
	v := tstamp.End(c.CurrentEpoch())
	if _, err := c.Server(0).comb.ensure(ctx, 1, "bk0", v); err == nil {
		t.Error("ensure against dead owner returned nil error")
	}
	if err := c.Server(0).comb.ensureUpTo(ctx, 1, "bk0", v); err == nil {
		t.Error("ensureUpTo against dead owner returned nil error")
	}
	if d := time.Since(es); d > 2*time.Second {
		t.Errorf("ensures against dead owner took %v", d)
	}
}
