package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment is recorded in every result file, so a reader can tell
// whether two files are comparable.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	LoadAvg1   float64 `json:"load_avg_1m_at_start"`
	// Noisy marks a pass started while the 1-minute load average was above
	// half the processors: its numbers include other programs' work.
	Noisy bool   `json:"noisy"`
	Start string `json:"start"`
}

func readEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	env.Noisy = env.LoadAvg1 > float64(env.NumCPU)/2
	return env
}

// ledger is one complete set of runs: what -ledger writes and -compare reads.
type ledger struct {
	Env       environment                `json:"env"`
	Seed      int64                      `json:"seed"` // pass p ran with seed+p
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*ledgerWorkload `json:"workloads"`
	Probes    map[string]metric          `json:"probes"`
}

type ledgerWorkload struct {
	LatRate  int       `json:"lat_rate_txn_per_s"`
	Untraced []*result `json:"untraced"` // one per pass; end-to-end numbers come from these
	Traced   *result   `json:"traced"`   // per-layer rows
}

// ledgerPasses is how many untraced runs of each workload a set holds: the
// repeatability criterion and -compare's quartiles are defined over ten.
const ledgerPasses = 10

// runLedger runs every workload ledgerPasses times untraced, pass p with
// seed+p (the repeatability criterion runs each workload ten times, each
// with another seed), and once traced, then the probes, printing as it
// goes, and writes the result file. Every run is a process of its own, as
// the benchmark's command is run, so that none inherits another's heap. A
// failed correctness check is an error.
func runLedger(stdout, stderr io.Writer, path string, seed int64, seconds float64, tmp string) error {
	led := &ledger{Env: readEnvironment(), Seed: seed, Seconds: seconds, Workloads: map[string]*ledgerWorkload{}}
	if led.Env.Noisy {
		fmt.Fprintf(stdout, "NOISY: load average %.2f on %d processors at start\n", led.Env.LoadAvg1, led.Env.NumCPU)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	resultPath := filepath.Join(tmp, "result.json")
	defer os.Remove(resultPath)
	run := func(sp *spec, seed int64, trace int) (*result, error) {
		cmd := exec.Command(self, "--workload", sp.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
			"--trace", fmt.Sprint(trace), "--tmp", tmp, "--result", resultPath)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
		}
		res := &result{}
		return res, readJSON(resultPath, res)
	}
	for _, sp := range specs {
		led.Workloads[sp.name] = &ledgerWorkload{LatRate: sp.latRate}
	}
	// Pass by pass rather than workload by workload, so that drift of the
	// machine over the set spreads over every workload alike.
	for p := 0; p < ledgerPasses; p++ {
		for _, sp := range specs {
			res, err := run(sp, seed+int64(p), 0)
			if err != nil {
				return err
			}
			led.Workloads[sp.name].Untraced = append(led.Workloads[sp.name].Untraced, res)
		}
	}
	for _, sp := range specs {
		res, err := run(sp, seed, 1)
		if err != nil {
			return err
		}
		led.Workloads[sp.name].Traced = res
	}
	if led.Probes, err = runProbes(seed, 1, tmp); err != nil {
		return err
	}
	printMetrics(stdout, "probes (median of 5 batches)", led.Probes, sortedNames(led.Probes))
	b, err := json.MarshalIndent(led, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
