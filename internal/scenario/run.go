package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"

	"alohadb/internal/chaos/oracle"
	"alohadb/internal/trace"
)

// RunOptions tunes one matrix run.
type RunOptions struct {
	// Seed is the base deterministic seed (default 1); the replay artifact
	// records it.
	Seed int64
	// Window is the per-scenario workload window (default 800ms). Ignored
	// when Soak is set.
	Window time.Duration
	// Soak, when non-zero, is the total soak budget: the matrix divides it
	// evenly across the selected scenarios and runs each with chaos,
	// watchdog, oracle, and journal on, gated on p99 SLOs and zero stall
	// episodes.
	Soak time.Duration
	// Full is handed to every scenario as Params.Full.
	Full bool
	// Tracer, when set, traces every cluster of the run: the runner puts
	// it into each shaped env's config and on Env.Tracer.
	Tracer *trace.Tracer
	// Out receives progress lines and scenario output (default stdout).
	Out io.Writer
	// ArtifactPath names the replay artifact written when any scenario
	// fails (empty: none).
	ArtifactPath string
}

// Artifact is the replayable record of one failing scenario run: the
// seed, scenario, and shape parameters that reproduce it, plus the exact
// CLI invocation.
type Artifact struct {
	Scenario string   `json:"scenario"`
	Attrs    []string `json:"attrs"`
	Seed     int64    `json:"seed"`
	Window   string   `json:"window"`
	Soak     bool     `json:"soak"`
	Full     bool     `json:"full,omitempty"`
	Error    string   `json:"error"`
	Replay   string   `json:"replay"`
}

// Outcome is one scenario's result within a matrix run.
type Outcome struct {
	Name    string
	Elapsed time.Duration
	Stalls  uint64
	Err     error
}

// defaultWindow is the quick-matrix workload window per scenario.
const defaultWindow = 800 * time.Millisecond

// Run executes the scenarios sequentially and returns an error if any
// failed. Each scenario gets a fresh environment built from its shape, a
// context bounded by window+timeout, and a zero-stall gate over its
// watchdogs; a failure writes a replay artifact (all failures, one JSON
// document) to opts.ArtifactPath.
func Run(ctx context.Context, scns []*Scenario, opts RunOptions) ([]Outcome, error) {
	if len(scns) == 0 {
		return nil, fmt.Errorf("scenario: nothing selected")
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	out := opts.Out
	if out == nil {
		out = os.Stdout
	}
	window := opts.Window
	if opts.Soak > 0 {
		window = opts.Soak / time.Duration(len(scns))
	}
	if window <= 0 {
		window = defaultWindow
	}

	var (
		outcomes  []Outcome
		artifacts []Artifact
	)
	for _, s := range scns {
		p := Params{Seed: opts.Seed, Window: window, Soak: opts.Soak > 0, Full: opts.Full}
		fmt.Fprintf(out, "=== scenario %s (seed %d, window %s)\n", s.Name, p.Seed, window.Round(time.Millisecond))
		start := time.Now()
		stalls, err := runOne(ctx, s, p, opts.Tracer, out)
		oc := Outcome{Name: s.Name, Elapsed: time.Since(start), Stalls: stalls, Err: err}
		outcomes = append(outcomes, oc)
		if err != nil {
			fmt.Fprintf(out, "--- FAIL %s (%s): %v\n", s.Name, oc.Elapsed.Round(time.Millisecond), err)
			artifacts = append(artifacts, Artifact{
				Scenario: s.Name,
				Attrs:    s.Attrs,
				Seed:     p.Seed,
				Window:   window.String(),
				Soak:     p.Soak,
				Full:     p.Full,
				Error:    err.Error(),
				Replay:   replayCommand(s.Name, p),
			})
		} else {
			fmt.Fprintf(out, "--- ok %s (%s)\n", s.Name, oc.Elapsed.Round(time.Millisecond))
		}
	}

	if len(artifacts) > 0 {
		if opts.ArtifactPath != "" {
			if werr := writeArtifact(opts.ArtifactPath, artifacts); werr != nil {
				fmt.Fprintf(out, "scenario: write artifact %s: %v\n", opts.ArtifactPath, werr)
			} else {
				fmt.Fprintf(out, "scenario: replay artifact written to %s\n", opts.ArtifactPath)
			}
		}
		for _, a := range artifacts {
			fmt.Fprintf(out, "replay: %s\n", a.Replay)
		}
		return outcomes, fmt.Errorf("scenario: %d/%d scenarios failed", len(artifacts), len(scns))
	}
	return outcomes, nil
}

// replayCommand is the invocation that reruns one scenario as it ran: a
// soak replays as a one-scenario soak of the same window, so the body sees
// the same Soak flag.
func replayCommand(name string, p Params) string {
	length := "-window"
	if p.Soak {
		length = "-soak"
	}
	full := ""
	if p.Full {
		full = " -full"
	}
	return fmt.Sprintf("go run ./cmd/aloha-bench run -seed %d %s %s%s name:%s", p.Seed, length, p.Window, full, name)
}

// runOne builds the env, runs the body under its deadline, and applies
// the runner-level gates (zero stall episodes, oracle verdict).
func runOne(ctx context.Context, s *Scenario, p Params, tracer *trace.Tracer, out io.Writer) (stalls uint64, err error) {
	var env *Env
	if s.Shape != nil {
		cfg := s.Shape(p)
		if tracer != nil {
			cfg.Tracer = tracer
		}
		env, err = BuildEnv(cfg)
		if err != nil {
			return 0, fmt.Errorf("build env: %w", err)
		}
	} else {
		env = &Env{Oracle: oracle.New()}
	}
	defer env.Close()
	env.Name = s.Name
	env.Seed = p.Seed
	env.Window = p.Window
	env.Soak = p.Soak
	env.Full = p.Full
	env.Tracer = tracer
	env.Out = out
	env.logf = func(format string, args ...any) {
		fmt.Fprintf(out, "    "+format+"\n", args...)
	}

	slack := s.Timeout
	if slack <= 0 {
		slack = 2 * time.Minute
	}
	rctx, cancel := context.WithTimeout(ctx, p.Window+slack)
	defer cancel()

	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		err = s.Run(rctx, env)
	}()

	stalls = env.StallsTotal()
	if err == nil && stalls > 0 {
		err = fmt.Errorf("watchdog recorded %d stall episode(s)", stalls)
	}
	if err == nil && env.Oracle != nil {
		if vs := env.Oracle.Check(); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintf(out, "    oracle violation: %v\n", v)
			}
			err = fmt.Errorf("oracle found %d violation(s)", len(vs))
		}
	}
	return stalls, err
}

func writeArtifact(path string, arts []Artifact) error {
	raw, err := json.MarshalIndent(arts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// List renders the registry as a table for `aloha-bench list`.
func List(w io.Writer, r *Registry) {
	for _, s := range r.All() {
		fmt.Fprintf(w, "%-18s  [%s]  %s\n", s.Name, AttrsString(s.Attrs), s.Summary)
	}
}
