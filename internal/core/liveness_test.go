package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"alohadb/internal/chaos"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/transport"
)

// TestFailedComputeIsRetried: a functor whose compute failed — its remote
// read crossed a severed link — is computed again at the next epoch commit,
// without any read of its key to trigger it, and its wait is observed once.
func TestFailedComputeIsRetried(t *testing.T) {
	net := chaos.Wrap(transport.NewMemNetwork(), chaos.Config{Seed: 1})
	reg := functor.NewRegistry()
	reg.MustRegister("copy", func(fc *functor.Context) (*functor.Resolution, error) {
		return functor.ValueResolution(fc.Reads["s1:src"].Value), nil
	})
	c, err := NewCluster(ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Registry:     reg,
		Network:      net,
		Router: placement.NewStatic(2, func(k kv.Key, n int) int {
			if strings.HasPrefix(string(k), "s1:") {
				return 1
			}
			return 0
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		net.Close()
	})
	if err := c.Load([]kv.Pair{{Key: "s1:src", Value: kv.Value("v")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "s0:dst", Functor: functor.User("copy", nil, []kv.Key{"s1:src"})}}})
	rec, ok := c.Server(0).Store().At("s0:dst", h.Version())
	if !ok {
		t.Fatal("installed record not found")
	}

	net.Sever(0, 1)
	mustAdvance(t, c)
	c.DrainProcessors()
	if rec.Final() {
		t.Fatal("computed across a severed link: the test tested nothing")
	}

	net.HealAll()
	mustAdvance(t, c)
	c.DrainProcessors()
	if kind, value, _ := rec.Outcome(); kind != functor.Resolved || string(value) != "v" {
		t.Fatalf("after the next commit the record is (%v, %q), want resolved to %q", kind, value, "v")
	}
	// The retry is not a second wait in the Figure-10 stage.
	if n := c.Server(0).stats.waitHist.Snapshot().Count; n != 1 {
		t.Fatalf("wait stage observed %d times for one functor, want 1", n)
	}
}

// TestAwaitLocalHonoursDeadline: without workers nothing computes a functor
// until something reads it, so a local Await can only end by its context —
// and must, at the caller's deadline.
func TestAwaitLocalHonoursDeadline(t *testing.T) {
	c := newTestCluster(t, 1, -1)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "k", Functor: functor.Add(1)}}})
	mustAdvance(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := h.Await(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Await = %v, want %v", err, context.DeadlineExceeded)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Await still blocked 3 s after its 500 ms deadline")
	}
}
