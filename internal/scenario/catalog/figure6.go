package catalog

import (
	"fmt"

	"alohadb/internal/scenario"
)

func registerFigure6(r *scenario.Registry) {
	r.MustRegister(figureScenario("6", "NewOrder throughput vs latency over offered load, both engines", figure6))
}

// partitionSettings are the four contention settings of Figures 6 and 8:
// TPC-C with 1 or 10 warehouses per host, scaled TPC-C with 1 or 10
// districts per host.
var partitionSettings = []struct {
	label   string
	scaled  bool
	perHost int
}{
	{label: "1W", scaled: false, perHost: 1},
	{label: "10W", scaled: false, perHost: 10},
	{label: "1D", scaled: true, perHost: 1},
	{label: "10D", scaled: true, perHost: 10},
}

// figure6 regenerates the throughput-vs-latency sweep for NewOrder
// transactions: ALOHA-DB and Calvin under TPC-C (1 or 10 warehouses per
// host) and scaled TPC-C (1 or 10 districts per host), varying offered
// load via the closed-loop client count.
func figure6(env *scenario.Env, sc scale) ([]Result, error) {
	clientSweep := []int{1, 4, 16, 64}
	if !sc.full {
		clientSweep = []int{2, 8}
	}
	fmt.Fprintf(env.Out, "# Figure 6: throughput vs latency, NewOrder, %d servers\n", sc.servers)
	fmt.Fprintf(env.Out, "# engine config clients  throughput(txn/s)  mean_latency_ms  p99_ms\n")
	var out []Result
	for _, cc := range partitionSettings {
		cfg := sc.tpccConfig(cc.scaled, cc.perHost)
		for _, clients := range clientSweep {
			res, err := runAlohaTPCC(env, cfg, cc.label, clients, true, alohaNewOrderStream)
			if err != nil {
				return out, err
			}
			fmt.Fprintf(env.Out, "ALOHA  %-4s %4d  %10.0f  %8.2f  %8.2f\n",
				cc.label, clients, res.Throughput, ms(res.Latency.Mean), ms(res.Latency.P99))
			out = append(out, res)

			cres, err := runCalvinTPCC(env, cfg, cc.label, clients, calvinNewOrderStream)
			if err != nil {
				return out, err
			}
			fmt.Fprintf(env.Out, "Calvin %-4s %4d  %10.0f  %8.2f  %8.2f\n",
				cc.label, clients, cres.Throughput, ms(cres.Latency.Mean), ms(cres.Latency.P99))
			out = append(out, cres)
		}
	}
	return out, nil
}
