package alohadb

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/epoch"
	"alohadb/internal/metrics"
	"alohadb/internal/obs/journal"
	"alohadb/internal/transport"
)

// TestMetricsSnapshotUnderLoad takes Metrics and Stats snapshots
// concurrently with transaction processing (run under -race) and then
// checks that the expected families exist with nonzero observations.
func TestMetricsSnapshotUnderLoad(t *testing.T) {
	db, err := Open(Config{Servers: 2, EpochDuration: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	stop := time.After(250 * time.Millisecond)

	// Writers: cross-partition transactions, awaited so the wait stage is
	// exercised too.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-ctx.Done():
					return
				default:
				}
				k1 := Key(fmt.Sprintf("k%d", (2*i+w)%16))
				k2 := Key(fmt.Sprintf("k%d", (2*i+w+1)%16))
				h, err := db.Submit(ctx, Txn{Writes: []Write{
					{Key: k1, Functor: Add(1)},
					{Key: k2, Functor: Sub(1)},
				}})
				if err != nil {
					return
				}
				_, _, _ = h.Await(ctx)
			}
		}(w)
	}
	// Readers: all three read modes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			default:
			}
			k := Key(fmt.Sprintf("k%d", i%16))
			_, _, _ = db.Read(ctx, k, ReadOptions{Committed: true})
			if snap, err := db.Snapshot(); err == nil {
				_, _, _ = db.Read(ctx, k, ReadOptions{Snapshot: snap})
			}
		}
	}()
	// Snapshotters: hammer Metrics and Stats while the load runs.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				default:
				}
				fams := db.Metrics()
				if !sort.SliceIsSorted(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name }) {
					t.Error("Metrics families not sorted by name")
					return
				}
				_ = db.Stats()
			}
		}()
	}
	<-stop
	cancel()
	wg.Wait()

	fams := db.Metrics()
	byName := make(map[string]MetricFamily, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, name := range []string{core.FamTxnsCommitted, transport.FamMsgsSent} {
		if f, ok := byName[name]; !ok || f.Total() == 0 {
			t.Errorf("family %s missing or zero (present=%v)", name, ok)
		}
	}
	for _, name := range []string{
		core.FamStageInstall, core.FamStageWait, core.FamStageCompute,
		core.FamEpochTxns, epoch.FamSwitch,
	} {
		f, ok := byName[name]
		if !ok {
			t.Errorf("family %s missing", name)
			continue
		}
		if h := f.TotalHist(); h.Count == 0 {
			t.Errorf("family %s has zero observations", name)
		}
	}
	// The per-server switch span (revoke → ack) is the journal's ack-wait
	// stage.
	var ackWaits uint64
	for _, s := range byName[journal.FamEpochStage].Series {
		for _, l := range s.Labels {
			if l.Key == "stage" && l.Value == journal.StageNames[journal.StageAckWait] && s.Hist != nil {
				ackWaits += s.Hist.Count
			}
		}
	}
	if ackWaits == 0 {
		t.Errorf("family %s{stage=%q} has zero observations", journal.FamEpochStage, journal.StageNames[journal.StageAckWait])
	}
	// Per-server families carry a server label, one series per server.
	install := byName[core.FamStageInstall]
	if len(install.Series) != db.NumServers() {
		t.Fatalf("stage install series = %d, want %d", len(install.Series), db.NumServers())
	}
	seen := map[string]bool{}
	for _, s := range install.Series {
		for _, l := range s.Labels {
			if l.Key == "server" {
				seen[l.Value] = true
			}
		}
	}
	if len(seen) != db.NumServers() {
		t.Errorf("server labels = %v, want one per server", seen)
	}
	// Stats stays consistent with the histogram view.
	st := db.Stats()
	if st.TxnsCommitted == 0 || st.InstallCount == 0 {
		t.Errorf("Stats compatibility view empty: %+v", st)
	}

	// The families render cleanly as Prometheus text.
	var sb strings.Builder
	if err := metrics.WriteText(&sb, fams); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE " + core.FamStageInstall + " histogram",
		core.FamStageInstall + `_bucket{server="0",le="+Inf"}`,
		"# TYPE " + core.FamTxnsCommitted + " counter",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered text missing %q", want)
		}
	}
}

// TestReadOptions exercises the Read entry point's three modes and its
// conflict error.
func TestReadOptions(t *testing.T) {
	db := openTestDB(t, Config{
		Preload: func(emit func(Pair) error) error {
			return emit(Pair{Key: "k", Value: EncodeInt64(1)})
		},
	})
	ctx := context.Background()

	if _, _, err := db.Read(ctx, "k", ReadOptions{Snapshot: 1, Committed: true}); err == nil {
		t.Error("Snapshot+Committed should be rejected")
	}

	v, found, err := db.Read(ctx, "k", ReadOptions{Committed: true})
	if err != nil || !found {
		t.Fatalf("committed read: found=%v err=%v", found, err)
	}
	if n, _ := DecodeInt64(v); n != 1 {
		t.Errorf("committed read = %d, want 1", n)
	}

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A current-epoch snapshot is served once its epoch commits; advance
	// the manual epoch so the snapshot becomes historical.
	advance(t, db)
	if _, found, err := db.Read(ctx, "k", ReadOptions{Snapshot: snap}); err != nil || !found {
		t.Errorf("snapshot read: found=%v err=%v", found, err)
	}

	// Fresh read waits for the current epoch; drive it manually.
	done := make(chan struct{})
	var fresh int64
	go func() {
		defer close(done)
		v, _, err := db.Read(ctx, "k", ReadOptions{})
		if err == nil {
			fresh, _ = DecodeInt64(v)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	advance(t, db)
	<-done
	if fresh != 1 {
		t.Errorf("fresh read = %d, want 1", fresh)
	}
}
