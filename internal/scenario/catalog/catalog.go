// Package catalog registers every scenario the repo ships, one file each:
// the four high-contention end-to-end workloads (feed.go, ledger.go,
// auction.go, tenants.go), the paper's evaluation figures against the
// Calvin baseline (figure6.go … figure11.go over the shared sweep helpers
// in figures.go, the closed-loop drivers in loop.go, their result types in
// stats.go and the cluster builders in setup.go), the oracle-checked chaos
// scenarios with the tag-append load they share with feed-fanout
// (chaos.go), the observability boot (obsview.go) and the live migration
// checks (migrate.go). It is the one package allowed to import
// both the scenario runtime and the chaos injector; the runtime itself
// stays injector-free via EnvConfig.WrapNet.
package catalog

import (
	"context"
	"fmt"
	"sync"
	"time"

	"alohadb/internal/chaos"
	"alohadb/internal/chaos/oracle"
	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/metrics"
	"alohadb/internal/scenario"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

var registerOnce sync.Once

// Register populates the default registry. Idempotent, so the CLI and
// the go-test bridge can both call it.
func Register() {
	registerOnce.Do(func() {
		r := scenario.Default()
		registerFeed(r)
		registerLedger(r)
		registerAuction(r)
		registerTenants(r)
		registerFigure6(r)
		registerFigure7(r)
		registerFigure8(r)
		registerFigure9(r)
		registerFigure10(r)
		registerFigure11(r)
		registerChaos(r)
		registerObsView(r)
		registerMigrate(r)
	})
}

// lightProbs is the fault mix the end-to-end workloads run under: hostile
// enough to exercise retries, second-round aborts, and reordering on
// every run, light enough that p99 SLOs stay meaningful.
func lightProbs() chaos.Probabilities {
	return chaos.Probabilities{
		DropCall:  0.01,
		DropResp:  0.005,
		DropSend:  0.03,
		Duplicate: 0.01,
		Delay:     0.15,
		MaxDelay:  2 * time.Millisecond,
	}
}

// wrapChaos is the EnvConfig.WrapNet hook that puts the fault injector
// between the cluster and its transport.
func wrapChaos(seed int64, probs chaos.Probabilities) func(transport.Network) transport.Network {
	return func(inner transport.Network) transport.Network {
		return chaos.Wrap(inner, chaos.Config{Seed: seed, Probabilities: probs})
	}
}

// chaosEnv is the base shape for the fault-injected workloads: short
// epochs so a window crosses many commit boundaries, a bounded abort
// retry budget, and a stall threshold well above the switch timeout
// so injected faults never register as stall episodes.
func chaosEnv(servers int, seed int64) scenario.EnvConfig {
	return scenario.EnvConfig{
		Servers:        servers,
		EpochDuration:  2 * time.Millisecond,
		SwitchTimeout:  time.Second,
		AbortRetries:   10,
		Timeseries:     true,
		StallThreshold: 5 * time.Second,
		WrapNet:        wrapChaos(seed, lightProbs()),
	}
}

// appendTag is the workload functor shared by every oracle-checked
// scenario: append this transaction's unique tag to the key's previous
// value (self-read only, so recomputation is deterministic).
func appendTag(fc *functor.Context) (*functor.Resolution, error) {
	prev := fc.Reads[fc.Key]
	out := make([]byte, 0, len(prev.Value)+len(fc.Arg))
	out = append(out, prev.Value...)
	out = append(out, fc.Arg...)
	return functor.ValueResolution(out), nil
}

// settle ends the fault schedule (when one is attached) and quiesces the
// cluster, so final-state reads see a healed, committed world.
func settle(ctx context.Context, env *scenario.Env) error {
	if cn, ok := env.Net.(*chaos.Network); ok {
		cn.SetEnabled(false)
		cn.HealAll()
	}
	return env.Quiesce(ctx)
}

// finishSubmit records a SubmitBatch outcome in the oracle: a submit
// error means no timestamp was ever assigned (cannot surface), an
// incomplete rollback is indeterminate, and everything else is the
// result's word.
func finishSubmit(h *oracle.History, tag string, res core.TxnResult, err error) {
	switch {
	case err != nil:
		h.Finish(tag, tstamp.Zero, oracle.StatusAborted)
	case res.Aborted && res.AbortIncomplete:
		h.Finish(tag, res.Version, oracle.StatusIndeterminate)
	case res.Aborted:
		h.Finish(tag, res.Version, oracle.StatusAborted)
	default:
		h.Finish(tag, res.Version, oracle.StatusCommitted)
	}
}

// latencies tracks submit latency in the same bounded histogram the
// server metrics use, so hour-long soaks measure p99 in constant memory.
type latencies struct {
	h *metrics.Histogram
}

func newLatencies() *latencies {
	return &latencies{h: metrics.NewHistogram(metrics.LatencyBounds())}
}

func (l *latencies) observe(d time.Duration) { l.h.ObserveDuration(d) }

func (l *latencies) p99() time.Duration { return l.h.Snapshot().QuantileDuration(0.99) }

func (l *latencies) count() uint64 { return l.h.Snapshot().Count }

// requireP99 is the workloads' SLO gate. The bounds are deliberately
// generous — shared CI runners, fault injection — and exist to catch
// collapse (retry storms, stalled epochs), not to benchmark.
func requireP99(env *scenario.Env, label string, l *latencies, slo time.Duration) error {
	p := l.p99()
	env.Logf("%s: %d txns, submit p99 %s (SLO %s)", label, l.count(), p.Round(time.Microsecond), slo)
	if p > slo {
		return fmt.Errorf("%s submit p99 %s exceeds SLO %s", label, p, slo)
	}
	return nil
}

// observeFinals records every key's settled value into the oracle.
func observeFinals(ctx context.Context, env *scenario.Env, keys []kv.Key) error {
	for _, k := range keys {
		v, found, err := env.Cluster.Server(0).Get(ctx, k)
		if err != nil {
			return fmt.Errorf("final read of %q: %w", k, err)
		}
		env.Oracle.ObserveFinal(k, v, found)
	}
	return nil
}
