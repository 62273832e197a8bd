// Command bench is the repository's performance ledger: four workloads
// driven through an in-process cluster's public calls, end-to-end and
// per-layer metrics, a traced run, layer probes and correctness checks.
// BENCHMARK.json at the repository root, which it reads from the working
// directory, names the workloads' reasons, the metrics, their units,
// directions and bounds. See README.md.
//
//	bash bench/run.sh --workload neworder-tcp --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -ledger out.json          # every workload, ten passes, traced pass, probes
//	bash bench/run.sh -probe
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkPath is BENCHMARK.json, relative to the repository root, where
// run.sh starts the program.
const benchmarkPath = "BENCHMARK.json"

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: share of the parent's median it may worsen by
}

// benchmarkFile is the part of BENCHMARK.json the program uses: it is the
// one place that says which metrics are end-to-end (reported by an untraced
// run and gated) and which per-layer (reported by a traced run).
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var bench benchmarkFile
	if err := readJSON(benchmarkPath, &bench); err != nil {
		return fail(err)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload once and print its result as the last line (one of: "+strings.Join(specNames(), ", ")+")")
	seed := fs.Int64("seed", 1, "workload seed: client c's generator gets seed*1000+c")
	seconds := fs.Float64("seconds", bench.RunSeconds, "measuring budget of one run, split 1:3 into the lat window and eight sat repetitions")
	trace := fs.String("trace", "0", "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	resultOut := fs.String("result", "", "also write the run's complete result (every metric with its sample count) to this file")
	probe := fs.Bool("probe", false, "time the layers' public functions directly and print ns/op and allocs/op")
	ledgerOut := fs.String("ledger", "", "run every workload ten times untraced and once traced, each run in a process of its own, then the probes, and write this result file")
	compare := fs.Bool("compare", false, "compare two -ledger result files given as arguments against BENCHMARK.json's bounds")
	tmp := fs.String("tmp", filepath.Join(".bench_build", "run"), "directory for WAL and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced := *trace == "1" || *trace == "true"
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1), &bench)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *probe:
		ms, err := runProbes(*seed, 1, *tmp)
		if err != nil {
			return fail(err)
		}
		printMetrics(stdout, "probes (median of 5 batches)", ms, sortedNames(ms))
		return 0
	case *ledgerOut != "":
		if err := runLedger(stdout, stderr, *ledgerOut, *seed, *seconds, *tmp); err != nil {
			return fail(err)
		}
		return 0
	case *workload != "":
		sp := findSpec(*workload)
		if sp == nil {
			return fail(fmt.Errorf("unknown workload %q (have: %s)", *workload, strings.Join(specNames(), ", ")))
		}
		rc := windows(*seconds, traced)
		rc.seed, rc.tmpDir = *seed, *tmp
		res, err := runWorkload(sp, rc)
		if err != nil {
			return fail(err)
		}
		printResult(stdout, res, &bench)
		if *resultOut != "" {
			b, err := json.Marshal(res)
			if err == nil {
				err = os.WriteFile(*resultOut, b, 0o644)
			}
			if err != nil {
				return fail(err)
			}
		}
		if err := printContractLine(stdout, res, &bench); err != nil {
			return fail(err)
		}
		if !res.Correct {
			return 1
		}
		return 0
	default:
		fs.Usage()
		return 2
	}
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

// printContractLine prints the run's result as one JSON object: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one, as BENCHMARK.json lists them.
func printContractLine(w io.Writer, res *result, bench *benchmarkFile) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := bench.EndToEnd
	if res.Trace {
		defs = bench.PerLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s of %s was not measured", d.Name, benchmarkPath)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s is measured in %s, %s says %s", d.Name, m.Unit, benchmarkPath, d.Unit)
		}
		out.Metrics[d.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func printMetrics(w io.Writer, title string, ms map[string]metric, order []string) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, name := range order {
		m, ok := ms[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "    %-40s %14.4f %-6s n=%d", name, m.Value, m.Unit, m.N)
		if m.Min != 0 || m.Max != 0 {
			fmt.Fprintf(w, "  min=%.4f max=%.4f", m.Min, m.Max)
		}
		if m.Note != "" {
			fmt.Fprintf(w, "  (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
}

func defNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

func printResult(w io.Writer, res *result, bench *benchmarkFile) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s  seed=%d  %s\n  %s\n", res.Workload, res.Seed, mode, res.Describe)
	printMetrics(w, "end-to-end (gated)", res.Metrics, defNames(bench.EndToEnd))
	printMetrics(w, "per-layer and ungated run-level timings", res.Metrics, defNames(bench.PerLayer))
	if res.Trace {
		fmt.Fprintf(w, "  %d spans written to %s\n", res.Spans, res.SpanFile)
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  wall clock (s): %s\n", res.WallS)
	fmt.Fprintf(w, "  checks: correct=%v attempted=%d failed=%d failed_share=%.6f\n", res.Correct, res.Attempted, res.Failed, share)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "    FAILED: %s\n", f)
	}
	if !res.Valid {
		fmt.Fprintf(w, "  INVALID: the open-loop generator ran more than %d ms late at p90 or %d ms at p99; latency rows are not comparable\n", maxLateP90Ms, maxLateP99Ms)
	}
}
