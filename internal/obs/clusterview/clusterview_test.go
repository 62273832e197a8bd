package clusterview

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/metrics"
	"alohadb/internal/obs"
	"alohadb/internal/obs/journal"
	"alohadb/internal/obs/tsdb"
)

// p99 is what a server reports for a stage that observed ds: the
// interpolated quantile of its cumulative histogram, in seconds.
func p99(ds ...time.Duration) float64 {
	h := metrics.NewHistogram(metrics.LatencyBounds())
	for _, d := range ds {
		h.ObserveDuration(d)
	}
	return float64(h.Snapshot().Quantile(0.99)) / 1e9
}

func repeat(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// fixedDocs is a three-server cluster in a known state: server 0 serves a
// hot key and carries the EM's journal mirror, server 1 is mid-migration
// and annotated a commit-rate drop, server 2 is stalled with server 0
// unreachable and gates the journal's one epoch on its ack.
func fixedDocs() []core.ObsDoc {
	journals := threeServerDocs(7)
	journals[0].EM = journals[3].EM
	skew := obs.NewSkew(obs.SkewConfig{SampleEvery: 1, TopK: 4, Partitions: 1})
	for i := 0; i < 9; i++ {
		skew.Observe(0, "hotkey")
	}
	hot := skew.Snapshot()
	docs := make([]core.ObsDoc, 3)
	for i := range docs {
		ts := doc(i, 500, []int64{1000, 1500, 2000}, []float64{100, 90, float64(10 * i)})
		docs[i] = core.ObsDoc{
			ObsSummary: core.ObsSummary{
				CommittedEpoch: uint64(9 - i),
				CurrentEpoch:   11,
				PlacementGen:   2,
				TxnsCommitted:  float64(1000 - 100*i),
				P99Install:     p99(repeat(100, 500*time.Microsecond)...),
				P99Wait:        p99(append(repeat(50, 3*time.Millisecond), repeat(50, 5*time.Millisecond)...)...),
				P99Compute:     p99(repeat(100, 1100*time.Microsecond)...),
				Goroutines:     40,
				HeapBytes:      1 << 20,
			},
			Stall:      &obs.StallStatus{},
			Epochs:     &journals[i],
			Timeseries: &ts,
		}
	}
	docs[0].TxnsAborted = 12
	docs[0].AbortReasons = map[string]float64{"constraint": 2, "chaos-injected": 10}
	docs[0].Hotkeys = &hot
	docs[1].MigrationInflight = 2
	docs[1].MigrationLastHandoff = 6
	docs[1].Timeseries.Annotations = []tsdb.Annotation{{
		Series: "commit_rate", Kind: tsdb.AnomalyDrop, Active: true,
		StartMS: 2000, Baseline: 95, Observed: 10, FromEpoch: 6, ToEpoch: 8,
	}}
	docs[2].Health = []string{"stall: simulated"}
	docs[2].Stall = &obs.StallStatus{Active: true, StallsTotal: 1,
		Snapshots: []*obs.StallSnapshot{{Server: 2, UnreachablePeers: []int{0}}}}
	return docs
}

// serve answers /debug/obs with doc, counting the requests it sees.
func serve(t *testing.T, doc core.ObsDoc, hits *atomic.Int32) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		if r.URL.Path != "/debug/obs" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(doc)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestScrapeMergesCluster(t *testing.T) {
	docs := fixedDocs()
	hits := make([]atomic.Int32, len(docs))
	sc := &Scraper{}
	for i, d := range docs {
		d.Timeseries = nil // no trend footer: the frame is a summary plus a row per server
		sc.Addrs = append(sc.Addrs, serve(t, d, &hits[i]))
	}
	sc.Addrs = append(sc.Addrs, "127.0.0.1:1")

	snap := sc.Scrape(context.Background())
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Errorf("server %d saw %d requests for one scrape, want 1", i, n)
		}
	}
	if snap.ReachableServers != 3 {
		t.Fatalf("reachable = %d, want 3 (%+v)", snap.ReachableServers, snap.Servers)
	}
	if snap.MinCommittedEpoch != 7 || snap.MaxCommittedEpoch != 9 {
		t.Errorf("epoch range = [%d,%d], want [7,9]", snap.MinCommittedEpoch, snap.MaxCommittedEpoch)
	}
	if snap.AggTxnsCommitted != 2700 {
		t.Errorf("agg txns = %v, want 2700", snap.AggTxnsCommitted)
	}
	if snap.Servers[3].Reachable || snap.Servers[3].Err == "" {
		t.Errorf("dead server not degraded: %+v", snap.Servers[3])
	}
	sv := snap.Servers[0]
	if !sv.Healthy || sv.CommittedEpoch != 9 || sv.CurrentEpoch != 11 {
		t.Errorf("server 0 = %+v", sv)
	}
	if sv.P99Install <= 0 || sv.P99Install > 0.1 {
		t.Errorf("p99 install = %v", sv.P99Install)
	}
	if sv.Goroutines < 1 {
		t.Errorf("runtime goroutines = %v", sv.Goroutines)
	}
	if len(sv.HotKeys) == 0 || sv.HotKeys[0].Key != "hotkey" {
		t.Errorf("hot keys = %+v", sv.HotKeys)
	}
	if s2 := snap.Servers[2]; s2.Healthy || s2.HealthReason != "stall: simulated" || !s2.StallActive {
		t.Errorf("stalled server = %+v", s2)
	}
	if snap.ActiveStalls != 1 || len(snap.EpochPaths) != 1 || snap.EpochPaths[0].GatingServer != 2 {
		t.Errorf("stalls %d, paths %+v", snap.ActiveStalls, snap.EpochPaths)
	}

	// A second scrape after more commits yields positive rates via Delta.
	prev := snap
	time.Sleep(10 * time.Millisecond)
	cur := Delta(prev, sc.Scrape(context.Background()))
	if cur.AggTxnRate != 0 {
		// Counters did not move between scrapes, so the rate must be zero —
		// Delta must not fabricate throughput.
		t.Errorf("rate without new commits = %v, want 0", cur.AggTxnRate)
	}
	// Render must produce one frame line per server plus header+summary.
	var sb strings.Builder
	Render(&sb, cur)
	if lines := strings.Count(sb.String(), "\n"); lines != len(sc.Addrs)+2 {
		t.Errorf("render produced %d lines, want %d:\n%s", lines, len(sc.Addrs)+2, sb.String())
	}
	if !strings.Contains(sb.String(), "down") {
		t.Errorf("render missing down state:\n%s", sb.String())
	}
}

// goldenFrame is Render over fixedDocs. It is byte-identical to the frame
// the Prometheus-text scrape rendered from the same state, except in the
// three p99 columns, which read HistogramSnapshot.Quantile(0.99) (the
// text parser reported the bucket's upper edge: 512µs, 8.192ms, 2.048ms).
const goldenFrame = `cluster: 3/3 up  min-epoch 7  max-epoch 9  commits 2700  STALLS 1
server                 state  epoch    commit   gen        txns      txn/s aborts          p99-install     p99-wait  p99-compute gating          notes
s0                     up     11       9        2          1000          0 12 (chaos-)           509µs       8.11ms      2.038ms -               hot "hotkey" ×9
s1                     up     11       8        2           900          0 -                     509µs       8.11ms      2.038ms -               migrating ×2 (last handoff 2 epochs ago)
s2                     stall  11       7        2           800          0 -                     509µs       8.11ms      2.038ms 1×ack-wait      stall: simulated; unreachable peers [0]
commit/s █▇▁ 30.00
anomaly [ACTIVE] server 1 commit_rate drop: baseline 95.00 -> 10.00 (epochs 6-8, gating server 2 ack-wait)
`

func TestRenderGolden(t *testing.T) {
	sc := &Scraper{}
	for _, d := range fixedDocs() {
		sc.Addrs = append(sc.Addrs, serve(t, d, nil))
	}
	snap := sc.Scrape(context.Background())
	for i := range snap.Servers {
		snap.Servers[i].Addr = "s" + string(rune('0'+i))
	}
	var sb strings.Builder
	Render(&sb, snap)
	if got := sb.String(); got != goldenFrame {
		t.Errorf("frame drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, goldenFrame)
	}
}

// TestScrapeClearedStallNamesNoPeers serves a server whose one stall
// episode has cleared, its capture still naming a peer it could not reach:
// the peer has healed since, so the row is up and its notes are empty.
func TestScrapeClearedStallNamesNoPeers(t *testing.T) {
	d := fixedDocs()[2]
	d.Health = nil
	d.Timeseries = nil
	d.Stall = &obs.StallStatus{StallsTotal: 1,
		Snapshots: []*obs.StallSnapshot{{Server: 2, UnreachablePeers: []int{0}}}}
	snap := (&Scraper{Addrs: []string{serve(t, d, nil)}}).Scrape(context.Background())
	sv := snap.Servers[0]
	if sv.StallActive || sv.StallsTotal != 1 || len(sv.UnreachablePeers) != 0 {
		t.Fatalf("server after a cleared stall = %+v", sv)
	}
	var sb strings.Builder
	Render(&sb, snap)
	lines := strings.Split(sb.String(), "\n")
	gating := "-"
	if sv.GatingEpochs > 0 {
		gating = fmt.Sprintf("%d×%s", sv.GatingEpochs, sv.GatingStage)
	}
	if row := strings.TrimRight(lines[2], " "); !strings.Contains(row, " up ") || !strings.HasSuffix(row, " "+gating) {
		t.Fatalf("row of a server whose stall cleared has notes:\n%s", sb.String())
	}
}

// TestScrapeHostileObs points the scraper at servers answering /debug/obs
// with garbage: each degrades to unreachable with the reason, while the
// healthy servers' rows and the merge are untouched.
func TestScrapeHostileObs(t *testing.T) {
	body := func(b string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte(b)) }
	}
	hostile := []http.HandlerFunc{
		body("aloha_txns_committed_total 42\n"),                // not JSON
		body(`{"committed_epoch": 9, "epochs": {"records": [`), // truncated
		body(`{"committed_epoch": "nine"}`),                    // wrong type
		body(`{"stall": {"snapshots": 3}}`),                    // wrong type, nested
		func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", http.StatusInternalServerError) },
	}
	docs := fixedDocs()
	sc := &Scraper{Addrs: []string{serve(t, docs[0], nil), serve(t, docs[1], nil)}}
	want := sc.Scrape(context.Background())
	for _, h := range hostile {
		srv := httptest.NewServer(h)
		defer srv.Close()
		sc.Addrs = append(sc.Addrs, strings.TrimPrefix(srv.URL, "http://"))
	}
	got := sc.Scrape(context.Background())
	for i, sv := range got.Servers[2:] {
		if sv.Reachable || sv.Err == "" {
			t.Errorf("hostile server %d not degraded: %+v", i, sv)
		}
	}
	if got.ReachableServers != 2 || got.MinCommittedEpoch != want.MinCommittedEpoch ||
		got.AggTxnsCommitted != want.AggTxnsCommitted || !reflect.DeepEqual(got.EpochPaths, want.EpochPaths) ||
		!reflect.DeepEqual(got.Timeseries, want.Timeseries) || !reflect.DeepEqual(got.Servers[:2], want.Servers) {
		t.Errorf("hostile servers disturbed the healthy rows or the merge:\n got %+v\nwant %+v", got, want)
	}
}

// TestDeltaCarryBounded runs aloha-top's watch loop over servers whose
// journal ring holds four epochs: what Delta carries from refresh to
// refresh must stay bounded, and the critical paths must be the ones a
// single merge of everything ever scraped yields.
func TestDeltaCarryBounded(t *testing.T) {
	const ring, refreshes = 4, 1000
	scrape := func(k int) ClusterSnapshot {
		snap := ClusterSnapshot{At: time.Unix(int64(k), 0)}
		for s := 0; s < 2; s++ {
			d := journal.Doc{Server: s, Ring: ring}
			for e := uint64(k); e < uint64(k+ring); e++ {
				d.Records = append(d.Records, mk(e+1, s, 10, 11+s, 20, 21, 22+s))
			}
			if s == 0 {
				d.EM = []journal.EMRecord{emRec(uint64(k+ring), 10, []int{11, 12}, 20)}
			}
			snap.Servers = append(snap.Servers, ServerStatus{Addr: string(rune('a' + s)), Reachable: true, Epochs: &d})
		}
		return snap
	}
	var all []journal.Doc
	prev := scrape(0)
	for k := 1; k <= refreshes; k++ {
		cur := scrape(k)
		for _, sv := range cur.Servers {
			all = append(all, *sv.Epochs)
		}
		prev = Delta(prev, cur)
		for _, sv := range prev.Servers {
			if n := len(sv.Epochs.Records); n > maxEpochPaths {
				t.Fatalf("refresh %d: server %s carries %d records, want <= %d", k, sv.Addr, n, maxEpochPaths)
			}
			if n := len(sv.Epochs.EM); n > maxEpochPaths {
				t.Fatalf("refresh %d: server %s carries %d EM records, want <= %d", k, sv.Addr, n, maxEpochPaths)
			}
		}
	}
	want := MergeEpochs(all...)
	want = want[len(want)-maxEpochPaths:]
	if !reflect.DeepEqual(prev.EpochPaths, want) {
		t.Fatalf("paths after %d refreshes differ from a single merge:\n got %+v\nwant %+v", refreshes, prev.EpochPaths, want)
	}
}

func TestDeltaComputesRate(t *testing.T) {
	base := time.Unix(1000, 0)
	prev := ClusterSnapshot{At: base, Servers: []ServerStatus{
		{Addr: "a", Reachable: true, ObsSummary: core.ObsSummary{TxnsCommitted: 100}},
		{Addr: "b", Reachable: true, ObsSummary: core.ObsSummary{TxnsCommitted: 50}},
	}}
	cur := ClusterSnapshot{At: base.Add(2 * time.Second), Servers: []ServerStatus{
		{Addr: "a", Reachable: true, ObsSummary: core.ObsSummary{TxnsCommitted: 300}},
		{Addr: "b", Reachable: false},
	}}
	got := Delta(prev, cur)
	if r := got.Servers[0].TxnRate; math.Abs(r-100) > 1e-9 {
		t.Errorf("rate a = %v, want 100", r)
	}
	if got.Servers[1].TxnRate != 0 {
		t.Errorf("unreachable server got a rate: %v", got.Servers[1].TxnRate)
	}
	if math.Abs(got.AggTxnRate-100) > 1e-9 {
		t.Errorf("agg rate = %v, want 100", got.AggTxnRate)
	}
}
