package catalog

import (
	"fmt"

	"alohadb/internal/scenario"
)

func registerFigure8(r *scenario.Registry) {
	r.MustRegister(figureScenario("8", "scale-out: NewOrder throughput over cluster size, both engines", figure8))
}

// figure8 regenerates the scale-out sweep: NewOrder throughput from 1 to
// 20 servers for both engines under all four partition settings.
func figure8(env *scenario.Env, sc scale) ([]Result, error) {
	serverSweep := []int{1, 2, 5, 10, 15, 20}
	if !sc.full {
		serverSweep = []int{1, 2, 4}
	}
	fmt.Fprintf(env.Out, "# Figure 8: scale-out, NewOrder throughput\n")
	fmt.Fprintf(env.Out, "# engine config servers throughput(txn/s)\n")
	var out []Result
	for _, cc := range partitionSettings {
		for _, servers := range serverSweep {
			at := sc
			at.servers = servers
			cfg := at.tpccConfig(cc.scaled, cc.perHost)
			clients := 8 * servers
			if !sc.full {
				clients = 4 * servers
			}
			res, err := runAlohaTPCC(env, cfg, cc.label, clients, false, alohaNewOrderStream)
			if err != nil {
				return out, err
			}
			fmt.Fprintf(env.Out, "ALOHA  %-4s %3d  %10.0f\n", cc.label, servers, res.Throughput)
			out = append(out, res)
			cres, err := runCalvinTPCC(env, cfg, cc.label, clients, calvinNewOrderStream)
			if err != nil {
				return out, err
			}
			fmt.Fprintf(env.Out, "Calvin %-4s %3d  %10.0f\n", cc.label, servers, cres.Throughput)
			out = append(out, cres)
		}
	}
	return out, nil
}
