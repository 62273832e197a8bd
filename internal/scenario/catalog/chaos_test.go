package catalog

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/scenario"
)

// TestChaosScenarios runs the four chaos scenarios through the runner at
// fixed seeds, all in parallel. The bodies fail a run that injected no
// fault, completed no migration or recovered nothing; the runner adds its
// zero-stall gate and the oracle's verdict, and prints the command that
// replays a failure.
func TestChaosScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios boot real clusters; skipped in -short")
	}
	Register()
	for _, tc := range []struct {
		name  string
		seeds []int64
	}{
		{"chaos-quick", []int64{1000, 1001, 1002, 1003, 7001, 7002}},
		{"chaos-crash", []int64{2000, 2001}},
		{"chaos-tcp", []int64{3000}},
		{"chaos-migrate", []int64{4000, 4001, 4002, 4003, 5000, 5001}},
	} {
		s := find(t, scenario.Default(), tc.name)
		if s == nil {
			t.Fatalf("%s is not registered", tc.name)
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range tc.seeds {
				t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
					t.Parallel()
					var out bytes.Buffer
					_, err := scenario.Run(context.Background(), []*scenario.Scenario{s},
						scenario.RunOptions{Seed: seed, Window: time.Second, Out: &out})
					if err != nil {
						t.Fatalf("%v\n%s", err, out.String())
					}
					t.Logf("%s", out.String())
				})
			}
		})
	}
}

// TestWitnessCatchesDivergentCompute: a handler that answers differently
// when one functor is evaluated a second time, driven by the shared
// tag-append load and then forced to recompute that functor, yields
// exactly one nondeterministic-compute violation.
func TestWitnessCatchesDivergentCompute(t *testing.T) {
	env, err := scenario.BuildEnv(scenario.EnvConfig{Servers: 2, EpochDuration: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.Seed, env.Window = 1, time.Second

	var (
		mu    sync.Mutex
		first *functor.Context
	)
	d := chaosLoad()
	// Nothing evaluates a functor twice on its own: no readers, no awaits.
	// One writer keeps the run to a few epochs.
	d.writers, d.readers, d.await = 1, 0, false
	d.handler = func(fc *functor.Context) (*functor.Resolution, error) {
		res, err := appendTag(fc)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case first == nil:
			first = &functor.Context{Key: fc.Key, Version: fc.Version, Arg: bytes.Clone(fc.Arg), Reads: maps.Clone(fc.Reads)}
		case fc.Key == first.Key && fc.Version == first.Version:
			return functor.ValueResolution(append(res.Value, "again;"...)), nil
		}
		return res, err
	}
	if err := d.run(context.Background(), env, 5); err != nil {
		t.Fatal(err)
	}
	if vs := env.Oracle.Check(); len(vs) != 0 {
		t.Fatalf("violations before the recompute: %v", vs)
	}

	h, ok := env.Registry.Lookup(appendFunctor)
	if !ok || first == nil {
		t.Fatalf("handler registered %v, evaluated %v", ok, first != nil)
	}
	if _, err := h(first); err != nil {
		t.Fatal(err)
	}
	vs := env.Oracle.Check()
	if len(vs) != 1 || vs[0].Kind != "nondeterministic-compute" {
		t.Fatalf("violations = %v, want one nondeterministic-compute", vs)
	}
	t.Log(vs[0])
}
