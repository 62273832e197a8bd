package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The tests run from the repository root, as run.sh starts the program:
// BENCHMARK.json is read from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func benchFile(t *testing.T) *benchmarkFile {
	var bench benchmarkFile
	if err := readJSON(benchmarkPath, &bench); err != nil {
		t.Fatal(err)
	}
	return &bench
}

// quickSeconds sizes a run for the tests: 200 ms lat window, 75 ms of work
// per sat repetition.
const quickSeconds = 0.8

// quick is a test run: two sat repetitions (one untraced, one traced).
func quick(t *testing.T, trace bool) runConfig {
	rc := windows(quickSeconds, trace)
	rc.satReps = 2
	rc.seed = 1
	rc.tmpDir = t.TempDir()
	return rc
}

func TestSameSeedSameStream(t *testing.T) {
	for _, sp := range specs {
		a, err := streamHash(sp, 1, 300)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamHash(sp, 1, 300)
		c, _ := streamHash(sp, 2, 300)
		if a != b {
			t.Errorf("%s: seed 1 gave two different streams: %s, %s", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %s", sp.name, a)
		}
	}
}

// The benchmark must survive the deletion of the layers ROADMAP item 3
// removes, so it may not depend on them, not even indirectly.
func TestDependencyDenyList(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", "./...")
	cmd.Dir = "bench"
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	denied := []string{
		"alohadb/internal/harness", "alohadb/internal/scenario", "alohadb/internal/chaos",
		"alohadb/internal/obs/clusterview", "alohadb/cmd/",
	}
	for _, pkg := range strings.Fields(string(out)) {
		for _, d := range denied {
			if pkg == d || strings.HasPrefix(pkg, strings.TrimSuffix(d, "/")+"/") {
				t.Errorf("bench depends on %s", pkg)
			}
		}
	}
}

func TestWorkloadsQuick(t *testing.T) {
	bench := benchFile(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(sp, quick(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v", sp.name, trace, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			listed := map[string]bool{}
			for _, d := range bench.EndToEnd {
				listed[d.Name] = true
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s trace=%v: end-to-end %s = %+v (present %v), want unit %s and a value above 0", sp.name, trace, d.Name, m, ok, d.Unit)
				}
			}
			if !trace {
				continue
			}
			for _, d := range bench.PerLayer {
				listed[d.Name] = true
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", sp.name, d.Name, m, ok, d.Unit)
				}
			}
			for name := range res.Metrics {
				if !listed[name] {
					t.Errorf("%s: metric %s is measured but %s does not list it", sp.name, name, benchmarkPath)
				}
			}
			layer := func(name string) float64 { return res.Metrics[name].Value }
			if layer("wire.gob_fallbacks") != 0 {
				t.Errorf("%s: %v envelopes fell back to gob", sp.name, layer("wire.gob_fallbacks"))
			}
			if wire := layer("transport.bytes_per_txn") > 0 && layer("transport.socket_writes_per_txn") > 0; wire != sp.tcp {
				t.Errorf("%s: bytes and socket writes above 0 is %v, want %v", sp.name, wire, sp.tcp)
			}
			if logged := layer("wal.append_bytes_per_txn") > 0 && layer("wal.recover_s") > 0; logged != sp.durable {
				t.Errorf("%s: WAL rows above 0 is %v, want %v", sp.name, logged, sp.durable)
			}
			if read := layer("reads_per_s") > 0 && layer("read_p50_us") > 0; read != sp.reader {
				t.Errorf("%s: reader rows above 0 is %v, want %v", sp.name, read, sp.reader)
			}
			if sp.ycsb && layer("core.combiner.remote_reads_per_txn") != 0 {
				t.Errorf("%s: %v remote reads per transaction, want none", sp.name, layer("core.combiner.remote_reads_per_txn"))
			}
			checkSpanFile(t, res)
		}
	}
}

func checkSpanFile(t *testing.T, res *result) {
	f, err := os.Open(res.SpanFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	roots := map[uint64]bool{}
	var children []span
	sawCounters := false
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var line struct {
			span
			Counters map[string]metric `json:"counters"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("%s: %v", res.SpanFile, err)
		}
		if line.Counters != nil {
			sawCounters = true
			continue
		}
		names[line.Name]++
		if line.End < line.Start {
			t.Errorf("span %s ends before it starts", line.Name)
		}
		if line.Parent == 0 {
			roots[line.ID] = true
		} else {
			children = append(children, line.span)
		}
	}
	for _, c := range children {
		if !roots[c.Parent] {
			t.Errorf("span %s has no root %d", c.Name, c.Parent)
		}
	}
	want := []string{spanTxn, spanBatch, spanSubmit, spanAwait}
	if res.Metrics["reads_per_s"].Value > 0 {
		want = append(want, spanRead, spanGetCommitted, spanReadMany)
	}
	for _, n := range want {
		if names[n] == 0 {
			t.Errorf("%s: no %s span", res.Workload, n)
		}
	}
	if !sawCounters {
		t.Errorf("%s: span file lacks the counter snapshot", res.Workload)
	}
}

func TestProbesQuick(t *testing.T) {
	ms, err := runProbes(1, 0.01, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"mvstore.put_ns", "mvstore.put_hot_ns", "mvstore.latest_hot_ns", "mvstore.latest_ns",
		"mvstore.seal_all_ns_per_key", "mvstore.compact_ns_per_version",
		"functor.eval_add_ns", "functor.neworder_handler_ns", "functor.stock_handler_ns",
		"functor.append_ns", "functor.decode_ns",
		"wire.encode_install_ns", "wire.decode_install_ns", "wire.install_bytes",
		"transport.mem_call_us", "transport.tcp_call_us",
		"wal.log_install_ns", "wal.sync_us", "epoch.advance_us", "tstamp.next_ns",
	}
	for _, name := range want {
		m, ok := ms[name]
		if !ok || !(m.Value > 0) || m.N != probeBatches || m.Min > m.Value || m.Max < m.Value {
			t.Errorf("probe %s = %+v (present %v)", name, m, ok)
		}
		if unit := name[strings.LastIndexByte(name, '_')+1:]; name != "wire.install_bytes" && unit != "key" && unit != "version" && m.Unit != unit {
			t.Errorf("probe %s has unit %s", name, m.Unit)
		}
	}
	if _, ok := ms["mvstore.put_ns_allocs"]; !ok {
		t.Error("no allocation count beside mvstore.put_ns")
	}
}

// BENCHMARK.json names the workloads the code has, in the same order, and
// each reason states the frozen lat rate.
func TestBenchmarkFileWorkloads(t *testing.T) {
	bench := benchFile(t)
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("%s has %d workloads, the code %d", benchmarkPath, len(bench.Workloads), len(specs))
	}
	for i, sp := range specs {
		w := bench.Workloads[i]
		if w.Name != sp.name {
			t.Errorf("workload %d: %s has %q, the code %q", i, benchmarkPath, w.Name, sp.name)
		}
		if rate := fmt.Sprintf("lat %d txn/s", sp.latRate); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: why %q does not state %q", sp.name, w.Why, rate)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", sp.name, len(w.Why))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
	// statistics.quantiles([10, 11, 12, 13, 14], n=4)
	q1, q2, q3 = quartiles([]float64{10, 11, 12, 13, 14})
	if q1 != 10.5 || q2 != 12 || q3 != 13.5 {
		t.Errorf("quartiles = %v %v %v, want 10.5 12 13.5", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name       string
		base, next []float64
		better     string
		want       string
	}{
		{"same", steady, steady, "higher", "ok"},
		{"throughput fell 20 %", steady, []float64{80, 81, 79, 80, 82}, "higher", "worse"},
		{"throughput rose 20 %", steady, []float64{120, 121, 119, 120, 122}, "higher", "ok"},
		{"latency rose 20 %", steady, []float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{"latency fell 20 %", steady, []float64{80, 81, 79, 80, 82}, "lower", "ok"},
		{"within the bound", steady, []float64{95, 96, 94, 95, 97}, "higher", "ok"},
		{"own spread too wide", steady, []float64{60, 100, 140, 80, 120}, "higher", "unresolved"},
	}
	for _, c := range cases {
		if got, _, _, _ := verdict(c.base, c.next, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// The contract: the last line of standard output is one JSON object with
// exactly correct, attempted, failed and metrics; the metrics are every
// end-to-end metric untraced and every per-layer metric traced.
func TestContractLine(t *testing.T) {
	bench := benchFile(t)
	for trace, defs := range map[string][]metricDef{"0": bench.EndToEnd, "1": bench.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"--workload", "ycsb-hot", "--seed", "7", "--seconds", fmt.Sprint(quickSeconds), "--trace", trace, "--tmp", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("trace %s: keys %v, want %v", trace, keys, want)
		}
		var ms map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(got["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(ms), len(defs))
		}
		for _, d := range defs {
			if m, ok := ms[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v)", trace, d.Name, m, ok)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited with code 0")
	}
}
