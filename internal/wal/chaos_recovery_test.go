package wal_test

// Crash-at-the-marker recovery tests: a hook that dies exactly around
// LogEpochCommitted simulates the two nastiest crash points — just before
// the commit marker hits disk (the epoch must vanish wholesale on
// recovery) and just after (the epoch must survive wholesale, even though
// the visibility broadcast never finished). The chaos oracle checks the
// recovered state against the recorded history in both cases.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/chaos/oracle"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
	"alohadb/internal/wal"
)

// crashingHook wraps a *wal.Log and simulates a process crash at the
// target epoch's commit marker: once dead, every later hook call is
// dropped on the floor (the process is gone), and the wrapped Log is
// deliberately never closed — Close would flush buffered tails and turn
// the crash into a clean shutdown.
type crashingHook struct {
	inner  *wal.Log
	target tstamp.Epoch
	// afterMarker selects the crash point: true crashes just after the
	// marker is durable, false just before.
	afterMarker bool
	dead        atomic.Bool
}

func (h *crashingHook) LogInstall(v tstamp.Timestamp, k kv.Key, fn *functor.Functor) error {
	if h.dead.Load() {
		return nil
	}
	return h.inner.LogInstall(v, k, fn)
}

func (h *crashingHook) LogAbort(v tstamp.Timestamp, keys []kv.Key) error {
	if h.dead.Load() {
		return nil
	}
	return h.inner.LogAbort(v, keys)
}

func (h *crashingHook) LogEpochCommitted(ctx context.Context, e tstamp.Epoch) error {
	if h.dead.Load() {
		return nil
	}
	if e == h.target {
		if h.afterMarker {
			err := h.inner.LogEpochCommitted(ctx, e)
			h.dead.Store(true)
			return err
		}
		h.dead.Store(true)
		return fmt.Errorf("crash injected before epoch %d marker", e)
	}
	return h.inner.LogEpochCommitted(ctx, e)
}

func (h *crashingHook) LastSyncAge() (time.Duration, bool) { return h.inner.LastSyncAge() }

func appendRegistry() *functor.Registry {
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

// runMarkerCrash drives a 2-server cluster through epochs 1..target+1,
// crashes the durability hooks at target's marker, recovers, and lets the
// oracle judge the surviving state.
func runMarkerCrash(t *testing.T, afterMarker bool) {
	t.Helper()
	const servers = 2
	target := tstamp.Epoch(3)
	dir := t.TempDir()
	reg := appendRegistry()
	c, err := core.NewCluster(core.ClusterConfig{
		Servers:      servers,
		ManualEpochs: true,
		Registry:     reg,
		DurabilityFactory: func(id int) (core.DurabilityHook, error) {
			lg, err := wal.Open(wal.LogPath(dir, id))
			if err != nil {
				return nil, err
			}
			return &crashingHook{inner: lg, target: target, afterMarker: afterMarker}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	hist := oracle.New()
	keys := []kv.Key{"a", "b", "c", "d"}
	ctx := context.Background()
	tag := 0
	// Epochs 1..target commit (target's marker is where the crash hits);
	// epoch target+1 installs but never commits anywhere.
	for e := tstamp.Epoch(1); e <= target+1; e++ {
		for i := 0; i < 3; i++ {
			tag++
			name := fmt.Sprintf("t%d", tag)
			wkeys := []kv.Key{keys[tag%len(keys)], keys[(tag+1)%len(keys)]}
			txn := core.Txn{}
			for _, k := range wkeys {
				txn.Writes = append(txn.Writes, core.Write{Key: k, Functor: functor.User("append", []byte(name+";"), nil)})
			}
			hist.Begin(name, wkeys)
			results, _, err := c.Server(tag%servers).SubmitBatch(ctx, []core.Txn{txn})
			if err != nil {
				t.Fatalf("txn %s: %v", name, err)
			}
			if results[0].Aborted {
				t.Fatalf("txn %s aborted unexpectedly: %+v", name, results[0])
			}
			if got := results[0].Version.Epoch(); got != e {
				t.Fatalf("txn %s landed in epoch %d, want %d", name, got, e)
			}
			hist.Finish(name, results[0].Version, oracle.StatusCommitted)
		}
		if e <= target {
			if _, err := c.AdvanceEpoch(); err != nil {
				t.Fatalf("advance to %d: %v", e+1, err)
			}
		}
	}
	// The crash: abandon the cluster. The hooks' Logs are never closed, so
	// nothing buffered gets a farewell flush.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	stores, start, err := wal.RecoverCluster(dir, servers)
	if err != nil {
		t.Fatal(err)
	}
	wantLast := target
	if !afterMarker {
		wantLast = target - 1
	}
	if start != wantLast+1 {
		t.Fatalf("recovered start epoch = %d, want %d", start, wantLast+1)
	}
	hist.DiscardEpochsAfter(wantLast)

	c2, err := core.NewCluster(core.ClusterConfig{
		Servers:      servers,
		ManualEpochs: true,
		Registry:     reg,
		Stores:       stores,
		StartEpoch:   start,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v, found, err := c2.Server(0).GetCommitted(ctx, k)
		if err != nil {
			t.Fatalf("final read %q: %v", k, err)
		}
		hist.ObserveFinal(k, v, found)
		// Belt and braces beyond the oracle: the target epoch's tags must
		// be present iff the marker made it to disk.
		for _, got := range oracle.ParseTags(v) {
			var n int
			if _, err := fmt.Sscanf(got, "t%d", &n); err != nil {
				t.Fatalf("unparsable tag %q in %q", got, v)
			}
			e := tstamp.Epoch(1 + (n-1)/3)
			if e > wantLast {
				t.Errorf("key %q carries tag %s from epoch %d, beyond recovered epoch %d", k, got, e, wantLast)
			}
		}
	}
	if vs := hist.Check(); len(vs) != 0 {
		t.Fatalf("oracle violations after recovery (afterMarker=%v):\n%v", afterMarker, vs)
	}
}

// TestCrashAfterMarkerBeforeVisibility: the marker is durable but the
// crash lands before the visibility broadcast finishes — recovery must
// surface the whole epoch (observable implies recoverable).
func TestCrashAfterMarkerBeforeVisibility(t *testing.T) { runMarkerCrash(t, true) }

// TestCrashBeforeMarker: the epoch's installs were written but its marker
// never hit disk — recovery must roll the epoch back wholesale, with no
// half-visible remains.
func TestCrashBeforeMarker(t *testing.T) { runMarkerCrash(t, false) }
