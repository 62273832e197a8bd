package catalog

import (
	"context"
	"fmt"
	"os"
	"time"

	"alohadb/internal/chaos"
	"alohadb/internal/scenario"
)

// chaosPort wraps one chaos suite configuration as a scenario: ops per
// writer scale with the window, the report prints through the runner,
// and any oracle violation fails the scenario.
func chaosPort(name, summary string, attrs []string, shape func(cfg *chaos.ScenarioConfig)) *scenario.Scenario {
	return &scenario.Scenario{
		Name:    name,
		Summary: summary,
		Attrs:   attrs,
		Timeout: 5 * time.Minute,
		Run: func(ctx context.Context, env *scenario.Env) error {
			ops := int(60 * env.Window.Seconds())
			if ops < 20 {
				ops = 20
			}
			if ops > 2000 {
				ops = 2000
			}
			cfg := chaos.ScenarioConfig{Seed: env.Seed, OpsPerWriter: ops}
			shape(&cfg)
			if cfg.Crash {
				dir, err := os.MkdirTemp("", "aloha-scn-chaos-*")
				if err != nil {
					return err
				}
				defer os.RemoveAll(dir)
				cfg.Dir = dir
			}
			rep, err := chaos.RunScenario(cfg)
			if err != nil {
				return err
			}
			env.Logf("%s", rep)
			if !rep.OK() {
				return fmt.Errorf("oracle found %d violation(s)", len(rep.Violations))
			}
			return nil
		},
	}
}

func registerChaos(r *scenario.Registry) {
	r.MustRegister(chaosPort("chaos-quick",
		"oracle-checked fault injection with link chaos on the in-memory transport",
		[]string{"chaos", "smoke"},
		func(cfg *chaos.ScenarioConfig) { cfg.LinkChaos = true }))
	r.MustRegister(chaosPort("chaos-crash",
		"mid-run cluster crash with WAL recovery and gray-band reclassification",
		[]string{"chaos", "crash"},
		func(cfg *chaos.ScenarioConfig) { cfg.LinkChaos = true; cfg.Crash = true }))
	r.MustRegister(chaosPort("chaos-tcp",
		"oracle-checked fault injection over real TCP sockets",
		[]string{"chaos", "net"},
		func(cfg *chaos.ScenarioConfig) {
			cfg.TCP = true
			// TCP RPCs are slower; the in-memory fault mix would mostly
			// measure retry latency (same tuning as TestChaosOverTCP).
			probs := chaos.DefaultProbabilities()
			probs.DropCall, probs.DropSend = 0.01, 0.03
			cfg.Probabilities = &probs
		}))
	r.MustRegister(chaosPort("chaos-migrate",
		"live key migration racing the workload under faults",
		[]string{"chaos", "migration"},
		func(cfg *chaos.ScenarioConfig) { cfg.LinkChaos = true; cfg.Migrate = true }))
}
