package core_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/obs"
	"alohadb/internal/obs/clusterview"
	"alohadb/internal/obs/journal"
	"alohadb/internal/obs/tsdb"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/wal"
)

// TestOpsSurface is the table over the one builder of the operator
// surface, on a server carrying every instrument: a tracer, a WAL whose
// fsync is older than the readiness limit, the skew profiler, and a flight
// recorder with its stall rule. The recorder is not started but sampled by
// hand, so two requests see the same documents.
func TestOpsSurface(t *testing.T) {
	dir := t.TempDir()
	var logs []*wal.Log
	netw := transport.NewMemNetwork()
	defer netw.Close()
	c, err := core.NewCluster(core.ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		Network:      netw,
		Tracer:       trace.New(trace.Config{SampleRate: 1}),
		Skew:         obs.NewSkew(obs.SkewConfig{SampleEvery: 1, Partitions: 2}),
		DurabilityFactory: func(id int) (core.DurabilityHook, error) {
			l, err := wal.Open(wal.LogPath(dir, id))
			if err == nil {
				logs = append(logs, l)
			}
			return l, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		for _, l := range logs {
			l.Close()
		}
	}()
	srv := c.Server(0)
	rec := srv.NewRecorder(tsdb.Config{StallThreshold: time.Hour})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h, err := srv.Submit(ctx, core.Txn{Writes: []core.Write{{Key: kv.Key("k"), Functor: functor.Add(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	if ok, reason, err := h.Await(ctx); !ok || err != nil {
		t.Fatalf("txn: %v %q %v", ok, reason, err)
	}
	rec.Sample(time.Now())
	rec.Sample(time.Now().Add(time.Second))

	var hits atomic.Int32
	handler := core.OpsHandler(core.Ops{Server: srv, EM: c.EpochManager(), Rebalancer: c.Rebalancer(),
		Net: netw, Recorder: rec, FsyncMaxAge: time.Nanosecond})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		handler.ServeHTTP(w, r)
	}))
	defer hs.Close()
	emHS := httptest.NewServer(core.OpsHandler(core.Ops{EM: c.EpochManager()}))
	defer emHS.Close()

	get := func(t *testing.T, base, path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	const js, text = "application/json; charset=utf-8", "text/plain; charset=utf-8"
	for _, tc := range []struct {
		base, path string
		code       int
		ctype      string
	}{
		{hs.URL, "/metrics", 200, "text/plain; version=0.0.4; charset=utf-8"},
		{hs.URL, "/healthz", 503, text},
		{hs.URL, "/livez", 200, text},
		{hs.URL, "/debug/pprof/", 200, "text/html; charset=utf-8"},
		{hs.URL, "/debug/traces", 200, js},
		{hs.URL, "/debug/traces/chrome", 200, js},
		{hs.URL, "/debug/placement", 200, "application/json"},
		{hs.URL, "/debug/obs", 200, js},
		{hs.URL, "/debug/stall", 200, js},
		{hs.URL, "/debug/hotkeys", 200, js},
		{hs.URL, "/debug/epochs", 200, js},
		{hs.URL, "/debug/timeseries", 200, js},
		// The epoch manager's process: its journal mirror, no server views.
		{emHS.URL, "/debug/obs", 200, js},
		{emHS.URL, "/debug/epochs", 200, js},
		{emHS.URL, "/healthz", 200, text},
		{emHS.URL, "/debug/stall", 404, text},
		{emHS.URL, "/debug/traces", 404, text},
		{emHS.URL, "/debug/placement", 404, text},
	} {
		name := strings.TrimPrefix(tc.path, "/")
		if tc.base == emHS.URL {
			name = "em/" + name
		}
		t.Run(name, func(t *testing.T) {
			resp, _ := get(t, tc.base, tc.path)
			if resp.StatusCode != tc.code || resp.Header.Get("Content-Type") != tc.ctype {
				t.Errorf("GET %s = %d %q, want %d %q", tc.path, resp.StatusCode, resp.Header.Get("Content-Type"), tc.code, tc.ctype)
			}
		})
	}

	_, body := get(t, hs.URL, "/debug/obs")
	var doc core.ObsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/obs: %v\n%s", err, body)
	}
	if doc.CommittedEpoch == 0 || doc.TxnsCommitted != float64(srv.Stats().TxnsCommitted) || doc.P99Install <= 0 {
		t.Errorf("summary = %+v", doc.ObsSummary)
	}
	if doc.Stall == nil || doc.Hotkeys == nil || len(doc.Hotkeys.TopKeys) == 0 || doc.Epochs == nil ||
		len(doc.Epochs.Records) == 0 || len(doc.Epochs.EM) == 0 || doc.Timeseries == nil {
		t.Fatalf("document misses an instrument: %s", body)
	}

	// Each view is its field of the document.
	for path, field := range map[string]any{
		"/debug/stall": doc.Stall, "/debug/hotkeys": doc.Hotkeys,
		"/debug/epochs": doc.Epochs, "/debug/timeseries": doc.Timeseries,
	} {
		_, view := get(t, hs.URL, path)
		if want, _ := json.Marshal(field); !jsonEqual(view, want) {
			t.Errorf("%s differs from its /debug/obs field:\n got %s\nwant %s", path, view, want)
		}
	}

	// The stale fsync fails readiness with one reason, in both places.
	age := regexp.MustCompile(`last fsync \S+ ago`)
	_, hz := get(t, hs.URL, "/healthz")
	lines := strings.Split(strings.TrimSpace(string(hz)), "\n")
	if len(doc.Health) != 1 || !strings.HasPrefix(doc.Health[0], "wal: last fsync") || len(lines) != 1 ||
		age.ReplaceAllString(lines[0], "") != age.ReplaceAllString(doc.Health[0], "") {
		t.Errorf("/healthz %q vs document %q", lines, doc.Health)
	}

	// One request per server per scrape.
	hits.Store(0)
	snap := (&clusterview.Scraper{Addrs: []string{strings.TrimPrefix(hs.URL, "http://")}}).Scrape(ctx)
	if n := hits.Load(); n != 1 {
		t.Errorf("scrape made %d requests, want 1", n)
	}
	if sv := snap.Servers[0]; !sv.Reachable || sv.Healthy || sv.CommittedEpoch != doc.CommittedEpoch || len(sv.HotKeys) == 0 {
		t.Errorf("scraped row = %+v", sv)
	}
}

// TestOpsHealthzStall drives a server's recorder on a synthetic clock
// through a stall and its clear and reads it through the operator
// surface: /healthz is 503 naming the stall while the episode is open and
// 200 once the frontier moves, and the stall gauges, /debug/stall and the
// epoch journal's stall marker agree.
func TestOpsHealthzStall(t *testing.T) {
	c, err := core.NewCluster(core.ClusterConfig{Servers: 2, ManualEpochs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := c.Server(0)
	const threshold = time.Second
	rec := srv.NewRecorder(tsdb.Config{StallThreshold: threshold})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(core.OpsHandler(core.Ops{Server: srv, Recorder: rec}))
	defer hs.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	now := time.Unix(1000, 0)
	rec.Sample(now)
	if code, body := get("/healthz"); code != 200 {
		t.Fatalf("/healthz before the threshold = %d %q", code, body)
	}
	rec.Sample(now.Add(threshold))
	code, body := get("/healthz")
	if code != 503 || !strings.HasPrefix(body, "stall: no epoch progress for 1s") {
		t.Fatalf("/healthz during the stall = %d %q", code, body)
	}
	if _, m := get("/metrics"); !strings.Contains(m, "\naloha_stall_active 1\n") || !strings.Contains(m, "\naloha_stalls_total 1\n") {
		t.Errorf("/metrics during the stall lacks the stall gauges:\n%s", m)
	}
	_, js := get("/debug/stall")
	var st obs.StallStatus
	if err := json.Unmarshal([]byte(js), &st); err != nil {
		t.Fatalf("/debug/stall: %v\n%s", err, js)
	}
	if !st.Active || st.StallsTotal != 1 || len(st.Snapshots) != 1 || st.Snapshots[0].Server != 0 ||
		len(st.Snapshots[0].Peers) == 0 {
		t.Fatalf("/debug/stall during the stall = %s", js)
	}

	// The epoch committed during the episode carries the stall marker.
	e, err := c.AdvanceEpoch()
	if err != nil {
		t.Fatal(err)
	}
	committed := srv.CommittedEpoch()
	if committed == 0 {
		t.Fatalf("no epoch committed after advancing to %d", e)
	}
	marked := false
	for _, r := range srv.Journal().Snapshot() {
		if r.Epoch == uint64(committed) {
			marked = r.StallActive
		}
	}
	if !marked {
		t.Errorf("journal record of epoch %d lacks the stall marker", committed)
	}

	rec.Sample(now.Add(threshold + time.Millisecond))
	if code, body := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz after the clear = %d %q", code, body)
	}
	if _, m := get("/metrics"); !strings.Contains(m, "\naloha_stall_active 0\n") {
		t.Errorf("/metrics after the clear: stall still active")
	}
}

// TestNewRecorderOnRunningServer builds a server's recorder while its
// epochs commit, as aloha-server does when the epoch manager is already
// up: under -race, the build and Committed's stall-marker read must not
// race.
func TestNewRecorderOnRunningServer(t *testing.T) {
	c, err := core.NewCluster(core.ClusterConfig{Servers: 2, EpochDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	srv := c.Server(0)
	for srv.CommittedEpoch() < 2 {
		time.Sleep(time.Millisecond)
	}
	rec := srv.NewRecorder(tsdb.Config{StallThreshold: time.Hour})
	for e := srv.CommittedEpoch(); srv.CommittedEpoch() < e+3; {
		time.Sleep(time.Millisecond)
	}
	if rec.StallActive() {
		t.Fatal("stall active on a committing server")
	}
}

// TestDurableMarkerJournaled pins the hook-to-journal wiring on WAL-backed
// servers: every committed epoch's record times the whole durable marker
// as its fsync stage, and the stage histograms have no other durable stage.
func TestDurableMarkerJournaled(t *testing.T) {
	dir := t.TempDir()
	var logs []*wal.Log
	c, err := core.NewCluster(core.ClusterConfig{
		Servers:      2,
		ManualEpochs: true,
		DurabilityFactory: func(id int) (core.DurabilityHook, error) {
			l, err := wal.Open(wal.LogPath(dir, id))
			if err == nil {
				logs = append(logs, l)
			}
			return l, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		for _, l := range logs {
			l.Close()
		}
	}()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const epochs = 3
	for i := 0; i < epochs; i++ {
		h, err := c.Server(i%2).Submit(ctx, core.Txn{Writes: []core.Write{
			{Key: kv.Key("a"), Functor: functor.Add(1)}, {Key: kv.Key("b"), Functor: functor.Add(1)}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AdvanceEpoch(); err != nil {
			t.Fatal(err)
		}
		if ok, reason, err := h.Await(ctx); !ok || err != nil {
			t.Fatalf("txn %d: %v %q %v", i, ok, reason, err)
		}
	}
	for id := 0; id < 2; id++ {
		committed := 0
		for _, r := range c.Server(id).Journal().Snapshot() {
			if !r.Complete() {
				continue
			}
			committed++
			if r.FsyncNS <= 0 {
				t.Errorf("server %d epoch %d: wal_fsync_ns = %d, want > 0", id, r.Epoch, r.FsyncNS)
			}
		}
		if committed < epochs {
			t.Errorf("server %d: %d committed epochs journaled, want >= %d", id, committed, epochs)
		}
	}
	var stages []string
	for _, f := range c.Metrics() {
		if f.Name != journal.FamEpochStage {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Key == "stage" {
					stages = append(stages, l.Value)
				}
			}
		}
	}
	if !slices.Contains(stages, "fsync") || slices.Contains(stages, "ship") {
		t.Errorf("%s stages = %v, want fsync and no ship", journal.FamEpochStage, stages)
	}
}

// jsonEqual compares two JSON encodings by value.
func jsonEqual(a, b []byte) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	xa, _ := json.Marshal(x)
	ya, _ := json.Marshal(y)
	return string(xa) == string(ya)
}
