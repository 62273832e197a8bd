package catalog

import (
	"fmt"

	"alohadb/internal/scenario"
)

func registerFigure9(r *scenario.Registry) {
	r.MustRegister(figureScenario("9", "microbenchmark throughput vs contention index, both engines", figure9))
}

// figure9 regenerates the microbenchmark contention sweep: throughput as a
// function of the contention index.
func figure9(env *scenario.Env, sc scale) ([]Result, error) {
	cis := []float64{0.0001, 0.001, 0.0017, 0.01, 0.1}
	if !sc.full {
		cis = []float64{0.0001, 0.01, 0.1}
	}
	clients := 32 * sc.servers
	if !sc.full {
		clients = 16 * sc.servers
	}
	fmt.Fprintf(env.Out, "# Figure 9: microbenchmark throughput vs contention index, %d servers\n", sc.servers)
	fmt.Fprintf(env.Out, "# engine CI throughput(txn/s)\n")
	var out []Result
	for _, ci := range cis {
		ares, cres, err := runYCSBPoint(env, sc, ycsbPoint{ci: ci, clients: clients, window: pointWindow(env)})
		if err != nil {
			return out, err
		}
		fmt.Fprintf(env.Out, "ALOHA  %-7g %10.0f\n", ci, ares.Throughput)
		fmt.Fprintf(env.Out, "Calvin %-7g %10.0f\n", ci, cres.Throughput)
		out = append(out, ares, cres)
	}
	return out, nil
}
