// Command aloha-bench is the one front door to everything this repository
// runs end to end: the paper's evaluation figures (§V, Figures 6-11, both
// engines), the high-contention workloads, the chaos suites, the
// observability boot and the live-migration checks are all scenarios in
// one registry (internal/scenario/catalog), selected by attribute
// expression.
//
//	aloha-bench list                              # every scenario, its attributes, one line each
//	aloha-bench run smoke                         # CI's per-PR matrix
//	aloha-bench run -window 1600ms bench          # quick sweep of Figures 6-11
//	aloha-bench run -full -window 8s figure-6     # paper-scale parameters
//	aloha-bench run -seed 7 'chaos && !crash'     # any boolean expression over attributes and name globs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"alohadb/internal/scenario"
	"alohadb/internal/scenario/catalog"
	"alohadb/internal/trace"
)

func main() {
	catalog.Register()
	err := run(scenario.Default(), os.Args[1:], os.Stdout)
	var ue usageError
	if errors.As(err, &ue) {
		fmt.Fprintf(os.Stderr, "aloha-bench: %s\n", ue)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// usageError is a malformed command line: main prints the usage and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// run dispatches one command line (without the program name) over the
// given registry, writing everything a verb reports to out.
func run(reg *scenario.Registry, args []string, out io.Writer) error {
	if len(args) == 0 {
		return usageError("missing verb")
	}
	switch verb, rest := args[0], args[1:]; verb {
	case "list":
		if len(rest) != 0 {
			return usageError("list takes no arguments")
		}
		scenario.List(out, reg)
		return nil
	case "run":
		return runScenarios(reg, rest, out)
	default:
		return usageError(fmt.Sprintf("unknown verb %q", verb))
	}
}

// runOptions are the run verb's flags.
type runOptions struct {
	seed         int64
	window, soak time.Duration
	artifact     string
	full         bool
	traceSample  float64
	traceSlowest int
}

func runFlags(o *runOptions) *flag.FlagSet {
	fs := flag.NewFlagSet("aloha-bench run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed for every workload stream and fault schedule (recorded in the replay artifact)")
	fs.DurationVar(&o.window, "window", 0, "workload window per scenario (default 800ms); a figure measures each parameter point for a quarter of it")
	fs.DurationVar(&o.soak, "soak", 0, "soak mode: divide this total budget across the selected scenarios and run each as a long-window soak gated on p99 SLOs and zero stalls")
	fs.StringVar(&o.artifact, "artifact", "", "write a replay artifact (JSON: scenario, seed, window, the command that reruns it) here when a scenario fails")
	fs.BoolVar(&o.full, "full", false, "paper-scale parameters for the figures (slow); default is the quick sweep")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "trace sample rate in [0,1] for the ALOHA-DB clusters of the run")
	fs.IntVar(&o.traceSlowest, "trace-slowest", 0, "after the run, dump the N slowest captured traces (needs -trace-sample)")
	return fs
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  aloha-bench list
  aloha-bench run [flags] <expr>     expr: attributes and name globs joined by && || ! ( ), e.g. smoke, 'chaos && !crash', 'name:figure-*'
run flags:
`)
	fs := runFlags(&runOptions{})
	fs.SetOutput(w)
	fs.PrintDefaults()
}

// runScenarios selects scenarios by attribute expression and runs them
// through the matrix runner: `run smoke` is CI's quick matrix,
// `run -soak 25m soak` the nightly soak, `run bench` the paper's figures.
// Any failure prints the command that replays it and exits non-zero.
func runScenarios(reg *scenario.Registry, args []string, out io.Writer) error {
	var o runOptions
	fs := runFlags(&o)
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if fs.NArg() != 1 {
		return usageError("run takes exactly one selection expression, after the flags")
	}
	if o.traceSlowest > 0 && o.traceSample <= 0 {
		return usageError("-trace-slowest needs -trace-sample > 0")
	}
	scns, err := reg.Select(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(scns) == 0 {
		return fmt.Errorf("aloha-bench: %q selects no scenario (`aloha-bench list` shows the catalog)", fs.Arg(0))
	}
	var tracer *trace.Tracer
	if o.traceSample > 0 {
		tracer = trace.New(trace.Config{SampleRate: o.traceSample})
	}
	start := time.Now()
	_, err = scenario.Run(context.Background(), scns, scenario.RunOptions{
		Seed:         o.seed,
		Window:       o.window,
		Soak:         o.soak,
		Full:         o.full,
		Tracer:       tracer,
		Out:          out,
		ArtifactPath: o.artifact,
	})
	if o.traceSlowest > 0 {
		traces := tracer.Traces()
		slowest := trace.Slowest(traces, o.traceSlowest)
		fmt.Fprintf(out, "# %d slowest traces (of %d captured, %d spans dropped)\n",
			len(slowest), len(traces), tracer.Dropped())
		if werr := trace.WriteText(out, slowest); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# %d scenario(s) passed in %s\n", len(scns), time.Since(start).Round(time.Millisecond))
	return nil
}
