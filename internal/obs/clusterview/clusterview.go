// Package clusterview merges the servers' /debug/obs documents — one GET
// per server — into one cluster-wide snapshot: minimum committed epoch,
// aggregate throughput, per-server stage p99s and readiness, stall and
// skew roll-ups, the epoch critical paths merged across journals, and the
// flight-recorder rings merged across servers. It is the library behind
// cmd/aloha-top.
package clusterview

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/obs"
	"alohadb/internal/obs/journal"
	"alohadb/internal/obs/tsdb"
)

// ServerStatus is one server's slice of a cluster snapshot, distilled from
// its /debug/obs document.
type ServerStatus struct {
	Addr      string `json:"addr"`
	Reachable bool   `json:"reachable"`
	Err       string `json:"err,omitempty"`

	// Readiness as /healthz reports it (false on an active stall or a
	// stale WAL fsync), with the failing checks' reasons.
	Healthy      bool   `json:"healthy"`
	HealthReason string `json:"health_reason,omitempty"`

	// ServerID is the journal's server number; -1 when the document
	// carries no journal.
	ServerID int `json:"server_id,omitempty"`
	// GatingEpochs/GatingStage summarize the merged critical paths: how
	// many committed epochs this server gated, and its most common gating
	// stage. Filled by Scrape/Delta after the cross-server merge.
	GatingEpochs int    `json:"gating_epochs,omitempty"`
	GatingStage  string `json:"gating_stage,omitempty"`

	// Epochs and Timeseries are the raw journal and flight-recorder
	// documents for the cross-server merges; kept out of the JSON snapshot
	// (EpochPaths and ClusterSnapshot.Timeseries carry the merged views).
	Epochs     *journal.Doc `json:"-"`
	Timeseries *tsdb.Doc    `json:"-"`

	core.ObsSummary
	// TxnRate is commits/second between two scrapes; zero on a one-shot
	// snapshot (see Delta).
	TxnRate float64 `json:"txn_rate,omitempty"`

	// Stall roll-up (absent when the recorder's stall rule is off).
	StallActive      bool   `json:"stall_active"`
	StallsTotal      uint64 `json:"stalls_total,omitempty"`
	UnreachablePeers []int  `json:"unreachable_peers,omitempty"`

	// Skew roll-up (absent when profiling is off).
	SkewImbalance float64      `json:"skew_imbalance,omitempty"`
	HotKeys       []obs.HotKey `json:"hot_keys,omitempty"`
}

// ClusterSnapshot merges every server's status into the cluster view.
type ClusterSnapshot struct {
	At      time.Time      `json:"at"`
	Servers []ServerStatus `json:"servers"`

	ReachableServers int `json:"reachable_servers"`

	// MinCommittedEpoch is the cluster's visibility floor: the epoch every
	// reachable server has committed (the paper's global commit frontier).
	MinCommittedEpoch uint64 `json:"min_committed_epoch"`
	MaxCommittedEpoch uint64 `json:"max_committed_epoch"`

	AggTxnsCommitted float64 `json:"agg_txns_committed"`
	AggTxnRate       float64 `json:"agg_txn_rate,omitempty"`

	// ActiveStalls counts servers whose recorder currently declares a
	// stall; unreachable servers are counted separately above.
	ActiveStalls int `json:"active_stalls"`

	// EpochPaths are the committed epochs' critical paths, merged across
	// every reachable server's /debug/epochs journal (newest last, capped
	// at maxEpochPaths).
	EpochPaths []EpochPath `json:"epoch_paths,omitempty"`

	// Timeseries are the flight-recorder rings merged across every
	// reachable server's /debug/timeseries document, and Anomalies the
	// union of their level-shift annotations cross-linked to the merged
	// critical paths.
	Timeseries []ClusterSeries     `json:"timeseries,omitempty"`
	Anomalies  []ClusterAnnotation `json:"anomalies,omitempty"`
}

// maxEpochPaths caps how many merged critical paths a snapshot carries:
// the newest are the interesting ones, and the ring can hold hundreds.
const maxEpochPaths = 128

// Scraper polls a set of ops addresses (the -metrics-addr listeners).
type Scraper struct {
	// Addrs are host:port ops endpoints, one per server.
	Addrs []string
	// Client overrides the HTTP client (default: 2s overall timeout).
	Client *http.Client
}

func (s *Scraper) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return &http.Client{Timeout: 2 * time.Second}
}

// Scrape polls every server concurrently and merges the results. Per-server
// failures degrade that server's entry (Reachable=false) rather than
// failing the snapshot — a dashboard must keep rendering through the very
// outages it exists to show.
func (s *Scraper) Scrape(ctx context.Context) ClusterSnapshot {
	snap := ClusterSnapshot{At: time.Now(), Servers: make([]ServerStatus, len(s.Addrs))}
	var wg sync.WaitGroup
	for i, addr := range s.Addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			snap.Servers[i] = s.scrapeOne(ctx, addr)
		}(i, addr)
	}
	wg.Wait()

	first := true
	for _, sv := range snap.Servers {
		if !sv.Reachable {
			continue
		}
		snap.ReachableServers++
		snap.AggTxnsCommitted += sv.TxnsCommitted
		if sv.StallActive {
			snap.ActiveStalls++
		}
		if first || sv.CommittedEpoch < snap.MinCommittedEpoch {
			snap.MinCommittedEpoch = sv.CommittedEpoch
		}
		if first || sv.CommittedEpoch > snap.MaxCommittedEpoch {
			snap.MaxCommittedEpoch = sv.CommittedEpoch
		}
		first = false
	}
	mergeEpochPaths(&snap)
	mergeTimeseries(&snap)
	return snap
}

// mergeEpochPaths computes the snapshot's cluster-wide critical paths from
// the scraped journal documents and fills each server's gating summary.
func mergeEpochPaths(snap *ClusterSnapshot) {
	var docs []journal.Doc
	for _, sv := range snap.Servers {
		if sv.Epochs != nil {
			docs = append(docs, *sv.Epochs)
		}
	}
	if len(docs) == 0 {
		return
	}
	paths := MergeEpochs(docs...)
	if len(paths) > maxEpochPaths {
		paths = paths[len(paths)-maxEpochPaths:]
	}
	snap.EpochPaths = paths
	summary := GatingSummary(paths)
	for i := range snap.Servers {
		sv := &snap.Servers[i]
		if sv.Epochs == nil {
			continue
		}
		if g, ok := summary[sv.ServerID]; ok {
			sv.GatingEpochs = g.Epochs
			sv.GatingStage = g.Stage
		}
	}
}

// scrapeOne fetches one server's /debug/obs. Anything but a 200 with a
// well-formed document marks the server unreachable with the reason.
func (s *Scraper) scrapeOne(ctx context.Context, addr string) ServerStatus {
	st := ServerStatus{Addr: addr, ServerID: -1}
	doc, err := s.get(ctx, addr)
	if err != nil {
		st.Err = err.Error()
		return st
	}
	st.Reachable = true
	st.ObsSummary = doc.ObsSummary
	st.Healthy = len(doc.Health) == 0
	st.HealthReason = strings.Join(doc.Health, "\n")
	if stall := doc.Stall; stall != nil {
		st.StallActive = stall.Active
		st.StallsTotal = stall.StallsTotal
		// Only the open episode's capture names peers down now; a cleared
		// one's peers may have healed since.
		if n := len(stall.Snapshots); stall.Active && n > 0 {
			st.UnreachablePeers = stall.Snapshots[n-1].UnreachablePeers
		}
	}
	if skew := doc.Hotkeys; skew != nil {
		st.SkewImbalance = skew.Imbalance
		st.HotKeys = skew.TopKeys[:min(len(skew.TopKeys), 5)]
	}
	if doc.Epochs != nil {
		st.Epochs = doc.Epochs
		st.ServerID = doc.Epochs.Server
	}
	if doc.Timeseries != nil && len(doc.Timeseries.Series) > 0 {
		st.Timeseries = doc.Timeseries
	}
	return st
}

func (s *Scraper) get(ctx context.Context, addr string) (core.ObsDoc, error) {
	var doc core.ObsDoc
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/debug/obs", nil)
	if err != nil {
		return doc, err
	}
	resp, err := s.client().Do(req)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("clusterview: /debug/obs: %s", resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&doc); err != nil {
		return doc, fmt.Errorf("clusterview: /debug/obs: %w", err)
	}
	return doc, nil
}

// Delta fills cur's per-server and aggregate commit rates from a previous
// snapshot of the same address set, matching servers by address.
func Delta(prev, cur ClusterSnapshot) ClusterSnapshot {
	dt := cur.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return cur
	}
	prevBy := make(map[string]ServerStatus, len(prev.Servers))
	for _, sv := range prev.Servers {
		prevBy[sv.Addr] = sv
	}
	for i := range cur.Servers {
		sv := &cur.Servers[i]
		p, ok := prevBy[sv.Addr]
		if !ok || !sv.Reachable || !p.Reachable {
			continue
		}
		if d := sv.TxnsCommitted - p.TxnsCommitted; d >= 0 {
			sv.TxnRate = d / dt
			cur.AggTxnRate += sv.TxnRate
		}
		switch {
		case p.Epochs == nil:
		case sv.Epochs == nil:
			sv.Epochs = p.Epochs
		default:
			sv.Epochs = carry(p.Epochs, sv.Epochs)
		}
	}
	mergeEpochPaths(&cur)
	// Re-link the anomaly roll-up against the unioned critical paths: the
	// carried-over journal may cover epochs the fresh scrape's ring lost.
	mergeTimeseries(&cur)
	return cur
}

// Render writes one human-readable dashboard frame: a cluster summary line
// and a fixed-width row per server. It is what aloha-top refreshes.
func Render(w io.Writer, snap ClusterSnapshot) {
	fmt.Fprintf(w, "cluster: %d/%d up  min-epoch %d  max-epoch %d  commits %.0f",
		snap.ReachableServers, len(snap.Servers), snap.MinCommittedEpoch, snap.MaxCommittedEpoch, snap.AggTxnsCommitted)
	if snap.AggTxnRate > 0 {
		fmt.Fprintf(w, "  (%.0f/s)", snap.AggTxnRate)
	}
	if snap.ActiveStalls > 0 {
		fmt.Fprintf(w, "  STALLS %d", snap.ActiveStalls)
	}
	fmt.Fprintf(w, "\n%-22s %-6s %-8s %-8s %-4s %10s %10s %-14s %12s %12s %12s %-14s  %s\n",
		"server", "state", "epoch", "commit", "gen", "txns", "txn/s", "aborts", "p99-install", "p99-wait", "p99-compute", "gating", "notes")
	for _, sv := range snap.Servers {
		state := "up"
		switch {
		case !sv.Reachable:
			state = "down"
		case sv.StallActive:
			state = "stall"
		case !sv.Healthy:
			state = "notrdy"
		}
		var notes []string
		if sv.Err != "" {
			notes = append(notes, sv.Err)
		}
		if sv.HealthReason != "" {
			notes = append(notes, sv.HealthReason)
		}
		if len(sv.UnreachablePeers) > 0 {
			notes = append(notes, fmt.Sprintf("unreachable peers %v", sv.UnreachablePeers))
		}
		if len(sv.HotKeys) > 0 {
			notes = append(notes, fmt.Sprintf("hot %q ×%d", sv.HotKeys[0].Key, sv.HotKeys[0].Count))
		}
		if sv.MigrationInflight > 0 {
			note := fmt.Sprintf("migrating ×%.0f", sv.MigrationInflight)
			if sv.MigrationLastHandoff > 0 && sv.CommittedEpoch >= sv.MigrationLastHandoff {
				note += fmt.Sprintf(" (last handoff %d epochs ago)", sv.CommittedEpoch-sv.MigrationLastHandoff)
			}
			notes = append(notes, note)
		}
		gating := "-"
		if sv.GatingEpochs > 0 {
			gating = fmt.Sprintf("%d×%s", sv.GatingEpochs, sv.GatingStage)
		}
		fmt.Fprintf(w, "%-22s %-6s %-8d %-8d %-4d %10.0f %10.0f %-14s %12s %12s %12s %-14s  %s\n",
			sv.Addr, state, sv.CurrentEpoch, sv.CommittedEpoch, sv.PlacementGen, sv.TxnsCommitted, sv.TxnRate,
			fmtAborts(sv), fmtSec(sv.P99Install), fmtSec(sv.P99Wait), fmtSec(sv.P99Compute), gating, strings.Join(notes, "; "))
	}
	renderTrendFooter(w, snap)
}

// fmtAborts renders the aborts column: total count plus the dominant
// taxonomy reason, e.g. "12 (chaos-inje…)".
func fmtAborts(sv ServerStatus) string {
	if sv.TxnsAborted <= 0 {
		return "-"
	}
	out := fmt.Sprintf("%.0f", sv.TxnsAborted)
	var top string
	var topN float64
	for reason, n := range sv.AbortReasons {
		if n > topN || (n == topN && reason < top) {
			top, topN = reason, n
		}
	}
	if top != "" {
		if len(top) > 6 {
			top = top[:6]
		}
		out += " (" + top + ")"
	}
	return out
}

// renderTrendFooter appends the flight-recorder strip under the server
// table: a cluster commit-rate sparkline and the anomaly callouts.
func renderTrendFooter(w io.Writer, snap ClusterSnapshot) {
	for _, s := range snap.Timeseries {
		if s.Name != "commit_rate" {
			continue
		}
		fmt.Fprintf(w, "commit/s %s %s\n", Sparkline(seriesValues(s), 48), fmtVal(s.Last()))
		break
	}
	RenderAnomalies(w, snap, 4)
}

func fmtSec(s float64) string {
	if s <= 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
