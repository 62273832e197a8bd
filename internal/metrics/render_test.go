package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenFamilies is a fixed snapshot exercising every rendering path:
// counters with and without labels, a gauge, a seconds-scaled histogram,
// and label escaping.
func goldenFamilies() []Family {
	h := NewHistogram([]int64{1000, 1000000, 1000000000}) // 1µs, 1ms, 1s in ns
	h.Observe(500)                                        // first bucket
	h.Observe(500_000)                                    // second bucket
	h.Observe(2_000_000_000)                              // +Inf bucket
	return []Family{
		{
			Name: "aloha_stage_install_seconds",
			Help: "Time from transaction issue to all functors installed.",
			Kind: KindHistogram,
			Unit: UnitSeconds,
			Series: []Series{
				HistSeries(h.Snapshot(), Label{"server", "0"}),
			},
		},
		{
			Name: "aloha_txns_committed_total",
			Help: "Committed transactions.",
			Kind: KindCounter,
			Series: []Series{
				CounterSeries(42, Label{"server", "0"}),
				CounterSeries(7, Label{"server", "1"}),
			},
		},
		{
			Name:   "aloha_epoch_current",
			Help:   "Currently granted epoch.",
			Kind:   KindGauge,
			Series: []Series{GaugeSeries(9)},
		},
		{
			Name:   "odd_label",
			Kind:   KindCounter,
			Series: []Series{CounterSeries(1, Label{"path", `C:\x "q"` + "\n"})},
		},
	}
}

const goldenText = `# HELP aloha_stage_install_seconds Time from transaction issue to all functors installed.
# TYPE aloha_stage_install_seconds histogram
aloha_stage_install_seconds_bucket{server="0",le="1e-06"} 1
aloha_stage_install_seconds_bucket{server="0",le="0.001"} 2
aloha_stage_install_seconds_bucket{server="0",le="1"} 2
aloha_stage_install_seconds_bucket{server="0",le="+Inf"} 3
aloha_stage_install_seconds_sum{server="0"} 2.0005005
aloha_stage_install_seconds_count{server="0"} 3
# HELP aloha_txns_committed_total Committed transactions.
# TYPE aloha_txns_committed_total counter
aloha_txns_committed_total{server="0"} 42
aloha_txns_committed_total{server="1"} 7
# HELP aloha_epoch_current Currently granted epoch.
# TYPE aloha_epoch_current gauge
aloha_epoch_current 9
# TYPE odd_label counter
odd_label{path="C:\\x \"q\"\n"} 1
`

// TestWriteTextGolden is the golden test for the /metrics Prometheus
// rendering: any format drift fails loudly with a full diff.
func TestWriteTextGolden(t *testing.T) {
	var sb strings.Builder
	if err := WriteText(&sb, goldenFamilies()); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != goldenText {
		t.Errorf("rendered text drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, goldenText)
	}
}

func TestOpsHandler(t *testing.T) {
	srv := httptest.NewServer(OpsHandler(func() []Family { return goldenFamilies() }, nil, nil))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if body != goldenText {
		t.Errorf("/metrics body drifted from golden:\n%s", body)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ctype)
	}

	code, body, _ = get("/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d (%d bytes)", code, len(body))
	}
}
