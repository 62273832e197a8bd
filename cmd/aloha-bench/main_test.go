package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alohadb/internal/scenario"
	"alohadb/internal/scenario/catalog"
)

func TestListPrintsEveryScenario(t *testing.T) {
	catalog.Register()
	var out strings.Builder
	if err := run(scenario.Default(), []string{"list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	all := scenario.Default().All()
	if len(lines) != len(all) {
		t.Fatalf("list printed %d lines for %d scenarios:\n%s", len(lines), len(all), out.String())
	}
	for i, s := range all {
		if !strings.HasPrefix(lines[i], s.Name+" ") {
			t.Errorf("line %d = %q, want scenario %s", i, lines[i], s.Name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	reg := scenario.NewRegistry()
	for _, args := range [][]string{
		nil,
		{"-figure", "6"},
		{"scenarios"},
		{"list", "extra"},
		{"run"},
		{"run", "smoke", "-seed", "3"},
		{"run", "-no-such-flag", "smoke"},
		{"run", "-trace-slowest", "3", "smoke"},
		{"gate", "a.jsonl", "b.jsonl"},
	} {
		var ue usageError
		if err := run(reg, args, &strings.Builder{}); !errors.As(err, &ue) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}

func TestRunSelectingNothingNamesList(t *testing.T) {
	catalog.Register()
	err := run(scenario.Default(), []string{"run", "no-such-attribute"}, &strings.Builder{})
	var ue usageError
	if err == nil || errors.As(err, &ue) || !strings.Contains(err.Error(), "aloha-bench list") {
		t.Fatalf("err = %v, want a failure that names `aloha-bench list`", err)
	}
}

// TestReplayCommandReplays feeds a failing scenario's printed replay
// command back into the parser that produced it: it must select the same
// scenario with the same seed and window.
func TestReplayCommandReplays(t *testing.T) {
	reg := scenario.NewRegistry()
	var seen []string
	reg.MustRegister(&scenario.Scenario{
		Name:  "fail-one",
		Attrs: []string{"broken"},
		Run: func(ctx context.Context, env *scenario.Env) error {
			seen = append(seen, fmt.Sprintf("seed=%d window=%s", env.Seed, env.Window))
			return errors.New("deliberate")
		},
	})
	reg.MustRegister(&scenario.Scenario{
		Name:  "bystander",
		Attrs: []string{"broken"},
		Run:   func(ctx context.Context, env *scenario.Env) error { return nil },
	})

	artifact := filepath.Join(t.TempDir(), "artifact.json")
	var out strings.Builder
	if err := run(reg, []string{"run", "-seed", "7", "-window", "70ms", "-artifact", artifact, "broken"}, &out); err == nil {
		t.Fatalf("a failing scenario reported success:\n%s", out.String())
	}
	raw, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var arts []scenario.Artifact
	if err := json.Unmarshal(raw, &arts); err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Scenario != "fail-one" || arts[0].Seed != 7 {
		t.Fatalf("artifact = %+v, want one entry for fail-one at seed 7", arts)
	}

	const prefix = "go run ./cmd/aloha-bench "
	if !strings.HasPrefix(arts[0].Replay, prefix) {
		t.Fatalf("replay = %q, want a %q command", arts[0].Replay, prefix)
	}
	out.Reset()
	if err := run(reg, strings.Fields(strings.TrimPrefix(arts[0].Replay, prefix)), &out); err == nil {
		t.Fatalf("the replay passed:\n%s", out.String())
	}
	if strings.Contains(out.String(), "bystander") {
		t.Errorf("the replay ran more than the failing scenario:\n%s", out.String())
	}
	if len(seen) != 2 || seen[0] != "seed=7 window=70ms" || seen[1] != seen[0] {
		t.Errorf("runs saw %q, want the replay to repeat seed=7 window=70ms", seen)
	}
}
