package catalog

import (
	"fmt"
	"time"

	"alohadb/internal/calvin"
	"alohadb/internal/core"
	"alohadb/internal/metrics"
	"alohadb/internal/scenario"
)

func registerFigure10(r *scenario.Registry) {
	r.MustRegister(figureScenario("10", "latency breakdown by stage with per-stage percentiles, both engines",
		func(env *scenario.Env, sc scale) ([]Result, error) {
			// Stage shares are not throughput rows: nothing to Report.
			_, err := figure10(env, sc)
			return nil, err
		}))
}

// figure10 regenerates the latency breakdown: per-stage time shares of the
// transaction lifecycle under low (0.0001) and high (0.1) contention at
// light load.
func figure10(env *scenario.Env, sc scale) ([]StageBreakdown, error) {
	var out []StageBreakdown
	fmt.Fprintf(env.Out, "# Figure 10: latency breakdown by stage, light load\n")
	for _, ci := range []float64{0.0001, 0.1} {
		cfg := sc.ycsbConfig(ci)
		seedBase := streamSeed(env, 10)
		ae, err := NewAlohaYCSB(cfg, 0, figureWorkers, env.Tracer)
		if err != nil {
			return out, err
		}
		_, err = RunAloha(AlohaRun{
			Cluster:       ae.Cluster,
			NewTxn:        alohaYCSBStream(cfg, seedBase),
			Clients:       2, // light load (paper: 5% of peak)
			Duration:      pointWindow(env),
			SampleLatency: true,
		})
		if err != nil {
			ae.Close()
			return out, err
		}
		stats := ae.Cluster.Stats()
		fams := ae.Cluster.Metrics()
		ae.Close()
		b := alohaBreakdown(stats, fmt.Sprintf("CI=%g", ci))
		stagePercentiles(&b, fams)
		fmt.Fprintln(env.Out, b)
		out = append(out, b)

		cc, err := NewCalvinYCSB(cfg, 0, figureWorkers)
		if err != nil {
			return out, err
		}
		_, err = RunCalvin(CalvinRun{
			Cluster:  cc,
			NewTxn:   calvinYCSBStream(cfg, seedBase),
			Clients:  2,
			Duration: pointWindow(env),
		})
		if err != nil {
			cc.Close()
			return out, err
		}
		cstats := cc.Stats()
		cc.Close()
		cb := calvinBreakdown(cstats, fmt.Sprintf("CI=%g", ci))
		fmt.Fprintln(env.Out, cb)
		out = append(out, cb)
	}
	return out, nil
}

func alohaBreakdown(s core.Stats, label string) StageBreakdown {
	install := meanOf(s.InstallTime, s.InstallCount)
	wait := meanOf(s.WaitTime, s.WaitCount)
	compute := meanOf(s.ComputeTime, s.ComputeCount)
	total := install + wait + compute
	frac := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return float64(d) / float64(total)
	}
	return StageBreakdown{
		Engine: "ALOHA",
		Label:  label,
		Stages: []Stage{
			{Name: "functor-installing", Fraction: frac(install), Mean: install},
			{Name: "wait-for-processing", Fraction: frac(wait), Mean: wait},
			{Name: "processing", Fraction: frac(compute), Mean: compute},
		},
	}
}

// stagePercentiles fills the breakdown's p50/p95/p99 columns from the
// cluster's per-stage latency histograms (series merged across servers).
func stagePercentiles(b *StageBreakdown, fams []metrics.Family) {
	famFor := map[string]string{
		"functor-installing":  core.FamStageInstall,
		"wait-for-processing": core.FamStageWait,
		"processing":          core.FamStageCompute,
	}
	byName := make(map[string]metrics.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	for i := range b.Stages {
		f, ok := byName[famFor[b.Stages[i].Name]]
		if !ok {
			continue
		}
		h := f.TotalHist()
		if h.Count == 0 {
			continue
		}
		b.Stages[i].P50 = h.QuantileDuration(0.50)
		b.Stages[i].P95 = h.QuantileDuration(0.95)
		b.Stages[i].P99 = h.QuantileDuration(0.99)
	}
}

func calvinBreakdown(s calvin.Stats, label string) StageBreakdown {
	seq := meanOf(s.SequencingTime, s.SequencingN)
	lockRead := meanOf(s.LockReadTime, s.LockReadN)
	proc := meanOf(s.ProcessingTime, s.ProcessingN)
	// Lock-and-read includes processing inside its window; subtract so the
	// stages partition the lifecycle like the paper's figure.
	if lockRead > proc {
		lockRead -= proc
	}
	total := seq + lockRead + proc
	frac := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return float64(d) / float64(total)
	}
	return StageBreakdown{
		Engine: "Calvin",
		Label:  label,
		Stages: []Stage{
			{Name: "sequencing", Fraction: frac(seq), Mean: seq},
			{Name: "locking-and-read", Fraction: frac(lockRead), Mean: lockRead},
			{Name: "processing", Fraction: frac(proc), Mean: proc},
		},
	}
}

func meanOf(total time.Duration, n uint64) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
