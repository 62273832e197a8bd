package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// TestDrainAfterCommittedEpochIsABarrier: once every server reports epoch e
// committed, DrainProcessors returns only after every functor of e is
// final. An epoch is published as committed a moment before its functors
// are queued; a drain that slips into that moment must count the hand-off
// as work in progress, not find idle queues and return.
func TestDrainAfterCommittedEpochIsABarrier(t *testing.T) {
	const servers = 2
	c, err := NewCluster(ClusterConfig{
		Servers:       servers,
		EpochDuration: time.Millisecond,
		Registry:      testRegistry(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	type write struct {
		key     kv.Key
		version tstamp.Timestamp
	}
	var (
		mu     sync.Mutex
		writes []write
	)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := kv.Key(fmt.Sprintf("k%d", i%16))
				h, err := c.Server(w).Submit(ctx, Txn{Writes: []Write{{Key: k, Functor: functor.Add(1)}}})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				writes = append(writes, write{k, h.Version()})
				mu.Unlock()
			}
		}(w)
	}

	committed := func() tstamp.Epoch {
		e := c.Server(0).CommittedEpoch()
		for i := 1; i < servers; i++ {
			e = min(e, c.Server(i).CommittedEpoch())
		}
		return e
	}
	var seen tstamp.Epoch
	checked := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline) && !t.Failed(); {
		e := committed()
		if e == seen {
			continue
		}
		seen = e
		// Everything recorded so far was installed, and an install of
		// epoch e is acknowledged before e can commit: these are all of
		// e's functors the test knows of, and none may be pending.
		mu.Lock()
		snap := writes
		writes = nil
		mu.Unlock()
		c.DrainProcessors()
		for _, w := range snap {
			if w.version.Epoch() > e {
				mu.Lock()
				writes = append(writes, w)
				mu.Unlock()
				continue
			}
			rec, ok := c.Server(c.Server(0).Owner(w.key)).Store().At(w.key, w.version)
			if !ok || !rec.Final() {
				t.Errorf("epoch %d committed and processors drained, yet %s@%v is not final (found=%v)", e, w.key, w.version, ok)
				break
			}
			checked++
		}
	}
	close(stop)
	wg.Wait()
	if checked == 0 {
		t.Fatal("no functor was checked")
	}
}
