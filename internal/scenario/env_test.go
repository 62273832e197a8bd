package scenario

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/obs"
	"alohadb/internal/transport"
)

// TestBuildEnvMem exercises the shared builder end to end on the default
// in-memory transport: preload, submit, quiesce, read back.
func TestBuildEnvMem(t *testing.T) {
	loaded := kv.Key("seeded")
	env, err := BuildEnv(EnvConfig{
		Servers:       2,
		EpochDuration: 2 * time.Millisecond,
		Load: func(c *core.Cluster) error {
			return c.Load([]kv.Pair{{Key: loaded, Value: kv.EncodeInt64(41)}})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	ctx := context.Background()
	h, err := env.Cluster.Server(0).Submit(ctx, core.Txn{Writes: []core.Write{
		{Key: loaded, Functor: functor.Add(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Await(ctx); err != nil {
		t.Fatal(err)
	}
	if err := env.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	v, found, err := env.Cluster.Server(1).Get(ctx, loaded)
	if err != nil || !found {
		t.Fatalf("Get: %v found=%v", err, found)
	}
	if n, _ := kv.DecodeInt64(v); n != 42 {
		t.Fatalf("got %d, want 42", n)
	}
}

// TestBuildEnvOps verifies the full observability shape: recorders, skew,
// per-server ops listeners, and a clusterview scrape that sees every
// server with an advancing commit frontier.
func TestBuildEnvOps(t *testing.T) {
	env, err := BuildEnv(EnvConfig{
		Servers:       3,
		EpochDuration: 2 * time.Millisecond,
		Skew:          &obs.SkewConfig{SampleEvery: 1, TopK: 8},
		Ops:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if len(env.Recorders) != 3 {
		t.Fatalf("got %d recorders, want 3 (Ops implies Timeseries)", len(env.Recorders))
	}
	if len(env.OpsAddrs) != 3 {
		t.Fatalf("got %d ops listeners, want 3", len(env.OpsAddrs))
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		k := kv.Key(fmt.Sprintf("k%d", i%4))
		h, err := env.Cluster.Server(i%3).Submit(ctx, core.Txn{Writes: []core.Write{
			{Key: k, Functor: functor.Add(1)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			if _, _, err := h.Await(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := env.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	snap := env.Scraper().Scrape(ctx)
	if snap.ReachableServers != 3 {
		t.Fatalf("scrape reached %d/3 servers", snap.ReachableServers)
	}
	if snap.MinCommittedEpoch == 0 {
		t.Fatal("scrape saw no committed epochs")
	}
	if snap.ActiveStalls != 0 {
		t.Fatalf("scrape saw %d active stalls", snap.ActiveStalls)
	}
	if got := env.StallsTotal(); got != 0 {
		t.Fatalf("StallsTotal = %d, want 0", got)
	}
}

// TestBuildEnvWrapNet proves the decoration hook sees the inner transport
// and its result is what the cluster runs on.
func TestBuildEnvWrapNet(t *testing.T) {
	wrapped := false
	env, err := BuildEnv(EnvConfig{
		Servers:       2,
		EpochDuration: 2 * time.Millisecond,
		WrapNet: func(inner transport.Network) transport.Network {
			wrapped = true
			return inner
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if !wrapped {
		t.Fatal("WrapNet hook never ran")
	}
}

// TestRunMatrix drives the matrix runner over a private registry: one
// passing and one failing scenario, with the artifact written and the
// stall gate consulted.
func TestRunMatrix(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(&Scenario{
		Name:  "pass-one",
		Attrs: []string{"smoke"},
		Shape: func(p Params) EnvConfig {
			return EnvConfig{Servers: 1, EpochDuration: 2 * time.Millisecond}
		},
		Run: func(ctx context.Context, env *Env) error {
			if env.Cluster == nil {
				return fmt.Errorf("no cluster")
			}
			if env.Window <= 0 {
				return fmt.Errorf("no window")
			}
			return nil
		},
	})
	r.MustRegister(&Scenario{
		Name:  "fail-one",
		Attrs: []string{"smoke"},
		Run: func(ctx context.Context, env *Env) error {
			return fmt.Errorf("deliberate")
		},
	})

	scns, err := r.Select("smoke")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	artifact := t.TempDir() + "/artifact.json"
	outcomes, err := Run(context.Background(), scns, RunOptions{
		Window:       50 * time.Millisecond,
		Out:          &buf,
		ArtifactPath: artifact,
	})
	if err == nil {
		t.Fatal("matrix with a failing scenario reported success")
	}
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(outcomes))
	}
	// Select sorts by name, so fail-one runs first and pass-one second.
	if outcomes[0].Err == nil || outcomes[1].Err != nil {
		t.Fatalf("unexpected outcome errors: %+v", outcomes)
	}
	out := buf.String()
	if !strings.Contains(out, "--- ok pass-one") || !strings.Contains(out, "--- FAIL fail-one") {
		t.Fatalf("runner output missing pass/fail lines:\n%s", out)
	}
	if !strings.Contains(out, "replay: go run ./cmd/aloha-bench run -seed 1 -window 50ms name:fail-one") {
		t.Fatalf("runner output missing replay command:\n%s", out)
	}
}
