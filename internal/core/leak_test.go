package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
)

// TestCloseReleasesGoroutines guards the goroutine-lifetime discipline:
// after a cluster serves traffic and closes, the goroutine count returns
// to (near) its pre-cluster baseline — also when Close finds a worker in the
// middle of a segment, with more queued behind it, and when the mesh has
// latency, so that it runs a delay line and Close finds messages on it.
func TestCloseReleasesGoroutines(t *testing.T) {
	t.Run("idle", func(t *testing.T) { closeReleasesGoroutines(t, false, 0) })
	t.Run("mid-segment", func(t *testing.T) { closeReleasesGoroutines(t, true, 0) })
	t.Run("net-latency", func(t *testing.T) { closeReleasesGoroutines(t, false, 100*time.Microsecond) })
}

func closeReleasesGoroutines(t *testing.T, midSegment bool, netLatency time.Duration) {
	baseline := runtime.NumGoroutine()
	g := newHandoffGate()
	c, err := NewCluster(ClusterConfig{
		Servers:       3,
		EpochDuration: 3 * time.Millisecond,
		Workers:       4,
		Registry:      g.registry(),
		NetLatency:    netLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var last *TxnHandle
	for i := 0; i < 50; i++ {
		h, err := c.Server(i%3).Submit(ctx, Txn{Writes: []Write{
			{Key: kv.Key(string(rune('a' + i%5))), Functor: functor.Add(1)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		last = h
	}
	if _, _, err := last.Await(ctx); err != nil {
		t.Fatal(err)
	}
	if midSegment {
		// One batch: the gated functor and, behind it, several chunks' worth
		// on every shard. Close finds the worker parked on the gate; it stops
		// after that batch, whatever is still queued.
		g.shut()
		txns := []Txn{{Writes: []Write{{Key: gatedKey, Functor: functor.User("mix", kv.EncodeInt64(1), nil)}}}}
		for i := 0; i < 12*_chunkItems; i++ {
			txns = append(txns, Txn{Writes: []Write{{Key: kv.Key(fmt.Sprintf("queued:%d", i)), Functor: functor.Add(1)}}})
		}
		if _, _, err := c.Server(0).SubmitBatch(ctx, txns); err != nil {
			t.Fatal(err)
		}
		g.awaitHeld(t)
		go func() {
			for !c.Server(c.Server(0).Owner(gatedKey)).proc.stopped.Load() {
				time.Sleep(time.Millisecond)
			}
			g.open()
		}()
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// One-way sends and revoke-ack goroutines drain asynchronously; allow
	// them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
