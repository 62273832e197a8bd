package catalog

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/scenario"
	"alohadb/internal/workload/tpcc"
	"alohadb/internal/workload/ycsb"
)

func TestLatencySummarize(t *testing.T) {
	var l LatencySample
	if got := l.Summarize(); got.N != 0 {
		t.Errorf("empty summary N = %d", got.N)
	}
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	s := l.Summarize()
	if s.N != 100 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.P50 != 50*time.Millisecond {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("Max = %v", s.Max)
	}
	if s.P99 < s.P95 || s.P95 < s.P50 {
		t.Error("percentiles not monotone")
	}
}

func TestLatencyMerge(t *testing.T) {
	var a, b LatencySample
	a.Add(time.Millisecond)
	b.Add(3 * time.Millisecond)
	a.Merge(&b)
	if a.N() != 2 {
		t.Errorf("N = %d", a.N())
	}
	if got := a.Summarize().Mean; got != 2*time.Millisecond {
		t.Errorf("Mean = %v", got)
	}
}

func TestRunAlohaYCSBSmoke(t *testing.T) {
	cfg := ycsb.Config{Partitions: 2, KeysPerPartition: 1000, ContentionIndex: 0.1, Distributed: true}
	ae, err := NewAlohaYCSB(cfg, 5*time.Millisecond, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ae.Close()
	res, err := RunAloha(AlohaRun{
		Cluster:       ae.Cluster,
		NewTxn:        alohaYCSBStream(cfg, 0),
		Clients:       2,
		BatchSize:     2,
		Duration:      150 * time.Millisecond,
		SampleLatency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns == 0 {
		t.Error("no transactions completed")
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
	if res.Latency.N == 0 {
		t.Error("no latency samples")
	}
	// Latency includes the epoch wait: it must be at least a fraction of
	// the 5 ms epoch.
	if res.Latency.Mean < time.Millisecond {
		t.Errorf("mean latency %v implausibly small for 5ms epochs", res.Latency.Mean)
	}
	if s := res.String(); !strings.Contains(s, "ALOHA") {
		t.Errorf("String() = %q", s)
	}
}

func TestRunCalvinYCSBSmoke(t *testing.T) {
	cfg := ycsb.Config{Partitions: 2, KeysPerPartition: 1000, ContentionIndex: 0.1, Distributed: true}
	c, err := NewCalvinYCSB(cfg, 5*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := RunCalvin(CalvinRun{
		Cluster:   c,
		NewTxn:    calvinYCSBStream(cfg, 0),
		Clients:   2,
		BatchSize: 2,
		Duration:  150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns == 0 || res.Latency.N == 0 {
		t.Errorf("txns=%d latency samples=%d", res.Txns, res.Latency.N)
	}
}

func TestTPCCSetupsServeTransactions(t *testing.T) {
	cfg := tpcc.Config{Servers: 2, Items: 100, CustomersPerDistrict: 5, AbortRate: 0.01}
	ae, err := NewAlohaTPCC(cfg, 5*time.Millisecond, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ae.Close()
	res, err := RunAloha(AlohaRun{
		Cluster:       ae.Cluster,
		NewTxn:        alohaNewOrderStream(cfg, 1),
		Clients:       2,
		Duration:      150 * time.Millisecond,
		SampleLatency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns == 0 {
		t.Error("aloha TPC-C run produced no transactions")
	}

	c, err := NewCalvinTPCC(cfg, 5*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cres, err := RunCalvin(CalvinRun{
		Cluster:  c,
		NewTxn:   calvinNewOrderStream(cfg, 1),
		Clients:  2,
		Duration: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Txns == 0 {
		t.Error("calvin TPC-C run produced no transactions")
	}
}

// TestFigureBuildersCloseTheirMesh: closing what a figure cluster builder
// returns closes its mesh as well, so a sweep leaves no descriptor (the
// mesh's delay line sleeps on a timerfd) for the collector to find. GC is
// off, so a finalizer cannot hide a leak.
func TestFigureBuildersCloseTheirMesh(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := ycsb.Config{Partitions: 2, KeysPerPartition: 100, ContentionIndex: 0.1, Distributed: true}
	gen, err := ycsb.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		ae, err := NewAlohaYCSB(cfg, 2*time.Millisecond, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ae.Close()
		if _, err := ae.Cluster.Server(0).Submit(context.Background(), ycsb.Aloha(gen.Next())); err != nil {
			t.Fatal(err)
		}
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	cycle() // whatever the runtime opens once (its poller) is open now
	before := openFDs()
	for i := 0; i < 16; i++ {
		cycle()
	}
	if after := openFDs(); after > before {
		t.Errorf("16 build/submit/close cycles left %d descriptors open (%d before, %d after)", after-before, before, after)
	}
}

// TestFigureRunnersQuick exercises every figure runner end-to-end at a
// tiny scale: rows must be produced for each parameter point.
func TestFigureRunnersQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps take seconds")
	}
	tiny := scale{servers: 2, items: 100, customers: 5}
	var buf bytes.Buffer
	// 80 ms per parameter point.
	env := &scenario.Env{Seed: 1, Window: 320 * time.Millisecond, Out: &buf}

	t.Run("fig6", func(t *testing.T) {
		rows, err := figure6(env, tiny)
		if err != nil {
			t.Fatal(err)
		}
		// 4 configs x 2 client points x 2 engines.
		if len(rows) != 16 {
			t.Errorf("rows = %d, want 16", len(rows))
		}
	})
	t.Run("fig7", func(t *testing.T) {
		rows, err := figure7(env, tiny)
		if err != nil {
			t.Fatal(err)
		}
		// 6 series x 3 densities.
		if len(rows) != 18 {
			t.Errorf("rows = %d, want 18", len(rows))
		}
	})
	t.Run("fig8", func(t *testing.T) {
		rows, err := figure8(env, tiny)
		if err != nil {
			t.Fatal(err)
		}
		// 4 configs x 3 server points x 2 engines.
		if len(rows) != 24 {
			t.Errorf("rows = %d, want 24", len(rows))
		}
	})
	t.Run("fig9", func(t *testing.T) {
		rows, err := figure9(env, tiny)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Errorf("rows = %d, want 6", len(rows))
		}
		for _, r := range rows {
			if r.Throughput <= 0 {
				t.Errorf("%s %s: zero throughput", r.Engine, r.Label)
			}
		}
	})
	t.Run("fig10", func(t *testing.T) {
		rows, err := figure10(env, tiny)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d, want 4", len(rows))
		}
		for _, b := range rows {
			sum := 0.0
			for _, st := range b.Stages {
				sum += st.Fraction
			}
			if sum < 0.99 || sum > 1.01 {
				t.Errorf("%s %s: fractions sum to %.3f", b.Engine, b.Label, sum)
			}
		}
	})
	t.Run("fig11", func(t *testing.T) {
		rows, err := figure11(env, tiny)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Errorf("rows = %d, want 6", len(rows))
		}
	})
	if buf.Len() == 0 {
		t.Error("no rows were printed")
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := alohaBreakdown(core.Stats{
		InstallTime: 10 * time.Millisecond, InstallCount: 10,
		WaitTime: 20 * time.Millisecond, WaitCount: 10,
		ComputeTime: 10 * time.Millisecond, ComputeCount: 10,
	}, "x")
	if len(b.Stages) != 3 {
		t.Fatalf("stages = %d", len(b.Stages))
	}
	if b.Stages[1].Fraction != 0.5 {
		t.Errorf("wait fraction = %v, want 0.5", b.Stages[1].Fraction)
	}
	if !strings.Contains(b.String(), "wait-for-processing") {
		t.Errorf("String() = %q", b.String())
	}
}

// Generators are not concurrency-safe, so every client owns its stream; and
// every stream derives from the run's seed, so repeated runs (§V-A3) draw
// different transactions while one seed replays exactly.
func TestStreamsAreIndependent(t *testing.T) {
	tcfg := tpcc.Config{Servers: 2, Items: 50, CustomersPerDistrict: 5}
	ycfg := ycsb.Config{Partitions: 2, KeysPerPartition: 1000, ContentionIndex: 0.1, Distributed: true}
	// first100 renders the first 100 transactions of each of two clients
	// of every stream kind a figure drives, at one parameter point.
	first100 := func(seed int64) map[string]string {
		env := &scenario.Env{Seed: seed}
		out := make(map[string]string)
		for cli := 0; cli < 2; cli++ {
			aloha := map[string]func() core.Txn{
				"neworder": alohaNewOrderStream(tcfg, streamSeed(env, 8*101))(cli),
				"payment":  alohaPaymentStream(tcfg, streamSeed(env, 8*101))(cli),
				"ycsb":     alohaYCSBStream(ycfg, streamSeed(env, 8*107))(cli),
			}
			for kind, next := range aloha {
				var b strings.Builder
				for i := 0; i < 100; i++ {
					txn := next()
					if len(txn.Writes) == 0 {
						t.Fatalf("%s client %d: empty transaction", kind, cli)
					}
					for _, w := range txn.Writes {
						fmt.Fprintf(&b, "%s=%d:%x;", w.Key, w.Functor.Type, w.Functor.Arg)
					}
				}
				out[fmt.Sprintf("aloha-%s/%d", kind, cli)] = b.String()
			}
			calvinNext := calvinNewOrderStream(tcfg, streamSeed(env, 8*103))(cli)
			var b strings.Builder
			for i := 0; i < 100; i++ {
				txn := calvinNext()
				fmt.Fprintf(&b, "%s:%x;", txn.Proc, txn.Args)
			}
			out[fmt.Sprintf("calvin-neworder/%d", cli)] = b.String()
		}
		return out
	}
	a, again, other := first100(1), first100(1), first100(2)
	for name, txns := range a {
		if again[name] != txns {
			t.Errorf("%s: the same seed drew different transactions", name)
		}
		if other[name] == txns {
			t.Errorf("%s: seeds 1 and 2 drew the same transactions", name)
		}
	}
	for _, kind := range []string{"aloha-neworder", "aloha-payment", "aloha-ycsb", "calvin-neworder"} {
		if a[kind+"/0"] == a[kind+"/1"] {
			t.Errorf("%s: clients 0 and 1 share a stream", kind)
		}
	}
}

// regression guard for value encoding reuse in the harness path.
func TestYCSBAlohaTxnShape(t *testing.T) {
	g, err := ycsb.NewGenerator(ycsb.Config{Partitions: 2, KeysPerPartition: 100, ContentionIndex: 0.1, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	txn := ycsb.Aloha(g.Next())
	if len(txn.Writes) != 10 {
		t.Fatalf("writes = %d, want 10", len(txn.Writes))
	}
	for _, w := range txn.Writes {
		if w.Functor.Type != functor.TypeAdd {
			t.Errorf("functor type = %v, want ADD", w.Functor.Type)
		}
		if n, ok := kv.DecodeInt64(w.Functor.Arg); !ok || n != 1 {
			t.Errorf("functor arg = %d ok=%v, want 1", n, ok)
		}
	}
}
