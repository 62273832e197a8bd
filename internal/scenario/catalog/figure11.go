package catalog

import (
	"fmt"
	"time"

	"alohadb/internal/scenario"
)

func registerFigure11(r *scenario.Registry) {
	r.MustRegister(figureScenario("11", "mean latency vs epoch duration at light load, both engines", figure11))
}

// figure11 regenerates the epoch-duration sweep: mean latency under
// various epoch durations at medium contention (CI 0.001) and light load.
// The paper's expected slopes: ~0.5 for ALOHA-DB (uniform arrivals wait
// half an epoch) vs ~1.0 for Calvin (whose open-source generator emits at
// epoch start; our closed-loop clients resubmit immediately after each
// batch completes, reproducing that front-loading).
func figure11(env *scenario.Env, sc scale) ([]Result, error) {
	durations := []time.Duration{
		20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond,
		120 * time.Millisecond, 160 * time.Millisecond, 200 * time.Millisecond,
	}
	if !sc.full {
		durations = []time.Duration{20 * time.Millisecond, 80 * time.Millisecond, 200 * time.Millisecond}
	}
	fmt.Fprintf(env.Out, "# Figure 11: latency vs epoch duration, CI=0.001, light load\n")
	fmt.Fprintf(env.Out, "# engine epoch_ms mean_latency_ms\n")
	var out []Result
	for _, d := range durations {
		// The measurement window must span several epochs.
		window := pointWindow(env)
		if window < 6*d {
			window = 6 * d
		}
		// Uniform arrivals: jitter each client by up to one epoch so the
		// measured wait is the paper's half-epoch average for ALOHA-DB.
		ares, cres, err := runYCSBPoint(env, sc, ycsbPoint{
			ci: 0.001, clients: 2, window: window, epoch: d, sample: true, jitter: d,
		})
		if err != nil {
			return out, err
		}
		ares.Label = fmt.Sprintf("epoch=%s", d)
		cres.Label = ares.Label
		fmt.Fprintf(env.Out, "ALOHA  %4d  %8.2f\n", d.Milliseconds(), ms(ares.Latency.Mean))
		fmt.Fprintf(env.Out, "Calvin %4d  %8.2f\n", d.Milliseconds(), ms(cres.Latency.Mean))
		out = append(out, ares, cres)
	}
	return out, nil
}
