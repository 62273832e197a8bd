package catalog

import (
	"fmt"

	"alohadb/internal/scenario"
	"alohadb/internal/workload/tpcc"
)

func registerFigure7(r *scenario.Registry) {
	r.MustRegister(figureScenario("7", "NewOrder and Payment throughput vs warehouses/districts per host", figure7))
}

// figure7 regenerates the density sweep: NewOrder and Payment throughput
// under 1..10 warehouses (TPC-C) or districts (scaled TPC-C) per host.
func figure7(env *scenario.Env, sc scale) ([]Result, error) {
	densities := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if !sc.full {
		densities = []int{1, 3, 10}
	}
	clients := 8 * sc.servers
	if !sc.full {
		clients = 4 * sc.servers
	}
	fmt.Fprintf(env.Out, "# Figure 7: throughput vs warehouses/districts per host, %d servers\n", sc.servers)
	fmt.Fprintf(env.Out, "# series density throughput(txn/s)\n")
	var out []Result
	type series struct {
		name   string
		scaled bool
		run    func(cfg tpcc.Config, label string) (Result, error)
	}
	all := []series{
		{name: "Aloha-STPCC-NewOrder", scaled: true, run: func(cfg tpcc.Config, label string) (Result, error) {
			return runAlohaTPCC(env, cfg, label, clients, false, alohaNewOrderStream)
		}},
		{name: "Aloha-TPCC-NewOrder", scaled: false, run: func(cfg tpcc.Config, label string) (Result, error) {
			return runAlohaTPCC(env, cfg, label, clients, false, alohaNewOrderStream)
		}},
		{name: "Aloha-TPCC-Payment", scaled: false, run: func(cfg tpcc.Config, label string) (Result, error) {
			return runAlohaTPCC(env, cfg, label, clients, false, alohaPaymentStream)
		}},
		{name: "Calvin-STPCC-NewOrder", scaled: true, run: func(cfg tpcc.Config, label string) (Result, error) {
			return runCalvinTPCC(env, cfg, label, clients, calvinNewOrderStream)
		}},
		{name: "Calvin-TPCC-NewOrder", scaled: false, run: func(cfg tpcc.Config, label string) (Result, error) {
			return runCalvinTPCC(env, cfg, label, clients, calvinNewOrderStream)
		}},
		{name: "Calvin-TPCC-Payment", scaled: false, run: func(cfg tpcc.Config, label string) (Result, error) {
			return runCalvinTPCC(env, cfg, label, clients, calvinPaymentStream)
		}},
	}
	for _, s := range all {
		for _, d := range densities {
			cfg := sc.tpccConfig(s.scaled, d)
			label := fmt.Sprintf("%s/%d", s.name, d)
			res, err := s.run(cfg, label)
			if err != nil {
				return out, err
			}
			fmt.Fprintf(env.Out, "%-24s %2d  %10.0f\n", s.name, d, res.Throughput)
			out = append(out, res)
		}
	}
	return out, nil
}
