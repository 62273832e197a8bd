package chaos

import (
	"flag"
	"fmt"
	"testing"
	"time"
)

var (
	flagSeeds = flag.Int("chaos.seeds", 4, "seeds per quick chaos suite")
	flagSeed  = flag.Int64("chaos.seed", 0, "run only this seed (replay a failure)")
)

// runSeed executes one scenario and fails the test with a replayable
// report if the oracle objects.
func runSeed(t *testing.T, cfg ScenarioConfig) *Report {
	t.Helper()
	rep, err := RunScenario(cfg)
	if err != nil {
		t.Fatalf("seed %d: scenario error: %v (replay: go test ./internal/chaos/ -run %s -args -chaos.seed %d)",
			cfg.Seed, err, t.Name(), cfg.Seed)
	}
	t.Logf("%s", rep)
	if !rep.OK() {
		t.Errorf("seed %d: oracle violations (replay: go test ./internal/chaos/ -run %s -args -chaos.seed %d):\n%s",
			cfg.Seed, t.Name(), cfg.Seed, rep)
	}
	return rep
}

// suiteSeeds returns the seeds a quick suite should run: the replay seed
// alone when -chaos.seed is set, otherwise base..base+n-1.
func suiteSeeds(base int64, n int) []int64 {
	if *flagSeed != 0 {
		return []int64{*flagSeed}
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// TestChaosQuickSuite is the PR-gate smoke: drop/delay/duplicate faults
// plus link sever/heal cycles over the in-memory transport.
func TestChaosQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	for _, seed := range suiteSeeds(1000, *flagSeeds) {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rep := runSeed(t, ScenarioConfig{Seed: seed, LinkChaos: true})
			if rep.Faults.Injected() == 0 {
				t.Errorf("seed %d: no faults injected — the suite tested nothing", seed)
			}
		})
	}
}

// TestChaosCrashRecovery runs the two-phase crash scenario: half the
// workload, an abrupt crash with WAL recovery, then the rest. The oracle
// spans the crash, so lost committed epochs or resurrected rolled-back
// writes fail the run.
func TestChaosCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	for _, seed := range suiteSeeds(2000, 2) {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			// Longer epochs widen the uncommitted window at the crash, so
			// the discard/rollback path is actually exercised.
			runSeed(t, ScenarioConfig{Seed: seed, Crash: true, Dir: t.TempDir(), EpochDuration: 8 * time.Millisecond})
		})
	}
}

// TestChaosOverTCP exercises the injector stacked on real sockets, with a
// lighter fault mix (TCP RPCs are slower, so the same drop rates would
// mostly measure retry latency).
func TestChaosOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	probs := Probabilities{DropCall: 0.01, DropResp: 0.005, DropSend: 0.03, Duplicate: 0.01, Delay: 0.15, MaxDelay: 2 * time.Millisecond}
	for _, seed := range suiteSeeds(3000, 1) {
		seed := seed
		t.Run(fmt.Sprintf("binary-seed-%d", seed), func(t *testing.T) {
			runSeed(t, ScenarioConfig{
				Seed:          seed,
				TCP:           true,
				Probabilities: &probs,
				Writers:       4,
				OpsPerWriter:  30,
				EpochDuration: 5 * time.Millisecond,
			})
		})
	}
}
