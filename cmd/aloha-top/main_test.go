package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"alohadb/internal/scenario"
)

// TestOneShotClusterJSON runs the scripts' invocation — -cluster-json -once
// — against a live three-server env and decodes what it prints: every
// server reachable and the epoch floor monotonic between the two scrapes.
func TestOneShotClusterJSON(t *testing.T) {
	env, err := scenario.BuildEnv(scenario.EnvConfig{
		Servers:       3,
		EpochDuration: 2 * time.Millisecond,
		Ops:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	var out bytes.Buffer
	if err := oneShot(context.Background(), &out, env.Scraper(), 50*time.Millisecond, true, 0, false); err != nil {
		t.Fatal(err)
	}
	var got struct {
		ReachableServers  int    `json:"reachable_servers"`
		MinCommittedEpoch uint64 `json:"min_committed_epoch"`
		MinEpochMonotonic bool   `json:"min_epoch_monotonic"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, out.String())
	}
	if got.ReachableServers != 3 || !got.MinEpochMonotonic || got.MinCommittedEpoch == 0 {
		t.Errorf("cluster JSON = %+v, want 3 reachable servers, a monotonic epoch floor and a committed epoch", got)
	}
}
