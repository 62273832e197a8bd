package catalog

import (
	"context"
	"strings"
	"testing"
	"time"

	"alohadb/internal/scenario"
)

// TestScenarioSmokeMatrix is the go-test bridge into the scenario
// registry: it runs the whole smoke matrix — the same selection CI's
// `aloha-bench run smoke` uses — with a short window, so tier-1
// `go test ./...` exercises every smoke scenario end to end.
func TestScenarioSmokeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke matrix boots real clusters; skipped in -short")
	}
	Register()
	scns, err := scenario.Default().Select("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) < 5 {
		t.Fatalf("smoke matrix has only %d scenarios; expected the workloads plus chaos-quick, obs-view, migrate-split", len(scns))
	}
	var out strings.Builder
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	outcomes, err := scenario.Run(ctx, scns, scenario.RunOptions{
		Seed:         1,
		Window:       300 * time.Millisecond,
		Out:          &out,
		ArtifactPath: t.TempDir() + "/artifact.json",
	})
	t.Logf("matrix output:\n%s", out.String())
	if err != nil {
		t.Fatalf("smoke matrix failed: %v", err)
	}
	for _, oc := range outcomes {
		if oc.Stalls != 0 {
			t.Errorf("%s recorded %d stall episodes", oc.Name, oc.Stalls)
		}
	}
}

// TestRegistryShape pins the catalog's selection surface: the attribute
// families the docs advertise actually select something.
func TestRegistryShape(t *testing.T) {
	Register()
	r := scenario.Default()
	for _, expr := range []string{"smoke", "chaos", "bench", "contention", "soak", "migration", "obs", "net"} {
		scns, err := r.Select(expr)
		if err != nil {
			t.Fatalf("Select(%q): %v", expr, err)
		}
		if len(scns) == 0 {
			t.Errorf("Select(%q) matched nothing", expr)
		}
	}
	if s := find(t, r, "feed-fanout"); s == nil || !s.HasAttr("contention") {
		t.Error("feed-fanout missing or lost its contention attr")
	}
	// The soak family must be exactly the four end-to-end workloads: soak
	// mode divides its budget across this selection.
	soak, err := r.Select("soak")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"feed-fanout": true, "payment-ledger": true, "auction-snipe": true, "tenant-mix": true}
	if len(soak) != len(want) {
		t.Fatalf("soak family = %d scenarios, want %d", len(soak), len(want))
	}
	for _, s := range soak {
		if !want[s.Name] {
			t.Errorf("unexpected soak scenario %q", s.Name)
		}
	}
	// `run bench` is the paper's evaluation: exactly the six figures.
	bench, err := r.Select("bench")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range bench {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, " "), "figure-10 figure-11 figure-6 figure-7 figure-8 figure-9"; got != want {
		t.Errorf("bench family = %q, want %q", got, want)
	}
	// The hot-spot recovery run is registered but too long for the smoke
	// matrix; the netbench suite is gone (the ledger under bench/ has its rows).
	if s := find(t, r, "migrate-recover"); s == nil || !s.HasAttr("migration") || s.HasAttr("smoke") {
		t.Error("migrate-recover missing, lost its migration attr, or joined the smoke matrix")
	}
	if find(t, r, "netbench") != nil {
		t.Error("netbench is still registered")
	}
}

// find returns the scenario registered under name, or nil, through the
// selection the runner uses.
func find(t *testing.T, r *scenario.Registry, name string) *scenario.Scenario {
	t.Helper()
	scns, err := r.Select("name:" + name)
	if err != nil {
		t.Fatalf("Select(name:%s): %v", name, err)
	}
	if len(scns) != 1 {
		return nil
	}
	return scns[0]
}
