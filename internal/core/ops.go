package core

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"alohadb/internal/epoch"
	"alohadb/internal/metrics"
	"alohadb/internal/obs"
	"alohadb/internal/obs/journal"
	"alohadb/internal/obs/tsdb"
	"alohadb/internal/placement"
	"alohadb/internal/transport"
)

// Ops names what one process's operator surface reports on. Server is nil
// in the epoch-manager process; every field is optional.
type Ops struct {
	// Server contributes its families and epoch journal, and — when
	// attached — its hot-key profiler, tracer and placement table.
	Server *Server
	// EM is a co-located epoch manager: its families join /metrics and its
	// journal mirror joins the epoch journal.
	EM *epoch.Manager
	// Rebalancer adds the migration families (embedded clusters).
	Rebalancer *Rebalancer
	// Net adds the transport's families when it is instrumented.
	Net transport.Network
	// Recorder is the metrics flight recorder; its stall rule, when set,
	// serves /debug/stall, the stall gauges and a /healthz check.
	Recorder *tsdb.Recorder
	// FsyncMaxAge fails readiness while the server's WAL has not fsynced
	// for longer than this (zero never does).
	FsyncMaxAge time.Duration
}

// ObsSummary is the scalar head of /debug/obs, one dashboard row. Every
// value is read off the families /metrics serves, so the two agree.
type ObsSummary struct {
	CommittedEpoch uint64 `json:"committed_epoch"`
	CurrentEpoch   uint64 `json:"current_epoch"`
	// PlacementGen is the ownership-map generation; servers disagreeing
	// mid-scrape are converging on a live migration.
	PlacementGen uint64 `json:"placement_generation,omitempty"`
	// Moves in flight (queued plus pending retirements) and the last
	// handoff's epoch: a non-zero inflight with an old handoff is stuck.
	MigrationInflight    float64 `json:"migration_inflight,omitempty"`
	MigrationLastHandoff uint64  `json:"migration_last_handoff_epoch,omitempty"`

	TxnsCommitted float64 `json:"txns_committed"`
	TxnsAborted   float64 `json:"txns_aborted"`
	// AbortReasons breaks TxnsAborted down by the abort taxonomy; reasons
	// with no aborts are omitted.
	AbortReasons map[string]float64 `json:"abort_reasons,omitempty"`

	// Figure-10 stage p99s in seconds (HistogramSnapshot.Quantile over
	// the cumulative stage histograms).
	P99Install float64 `json:"p99_install_seconds"`
	P99Wait    float64 `json:"p99_wait_seconds"`
	P99Compute float64 `json:"p99_compute_seconds"`

	// Keys moved between the store's tiers, ever (DESIGN §4, Rows): rows
	// and histories thawed into chains, chains folded into rows or
	// histories. Both climbing together is churn.
	StoreThaws float64 `json:"store_thaws,omitempty"`
	StoreFolds float64 `json:"store_folds,omitempty"`
	// Versions below the watermark held as bytes (frozen runs), the bytes
	// they take, and the keys that are a history, a frozen run with no
	// chain (DESIGN §4, Frozen history).
	StoreFrozen      float64 `json:"store_frozen_versions,omitempty"`
	StoreFrozenBytes float64 `json:"store_frozen_bytes,omitempty"`
	StoreHistories   float64 `json:"store_histories,omitempty"`
	// Determinate computations whose deferred writes did not all land (a
	// failed apply or forward, or an apply to a replica being handed off);
	// their versions keep the writes in frozen history, as imported and
	// recovered versions do uncounted (DESIGN §4, Frozen history).
	DeferredUnlanded float64 `json:"deferred_unlanded,omitempty"`

	Goroutines float64 `json:"goroutines,omitempty"`
	HeapBytes  float64 `json:"heap_bytes,omitempty"`
}

// ObsDoc is the /debug/obs document: everything an operator tool reads of
// one process in one request. /debug/{stall,hotkeys,epochs,timeseries}
// serve its fields; a field is absent when its instrument is.
type ObsDoc struct {
	ObsSummary
	// Health lists the failing readiness checks as /healthz prints them,
	// one "name: reason" each; empty when ready.
	Health     []string          `json:"health,omitempty"`
	Stall      *obs.StallStatus  `json:"stall,omitempty"`
	Hotkeys    *obs.SkewSnapshot `json:"hotkeys,omitempty"`
	Epochs     *journal.Doc      `json:"epochs,omitempty"`
	Timeseries *tsdb.Doc         `json:"timeseries,omitempty"`
}

// OpsHandler builds a process's whole operator surface — the one
// aloha-server, aloha-em and scenario envs serve: /metrics, /healthz,
// /livez, pprof and /debug/traces (metrics.OpsHandler), /debug/placement,
// /debug/obs, and its views /debug/{stall,hotkeys,epochs,timeseries}
// (404 where the instrument is absent).
func OpsHandler(o Ops) http.Handler {
	var traces http.Handler
	if o.Server != nil {
		traces = metrics.TraceHandler(o.Server.tr.Tracer())
	}
	mux := metrics.OpsHandler(o.families, o.health, traces)
	if o.Server != nil {
		mux.Handle("/debug/placement", placement.Handler(o.Server.table))
	}
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, o.doc()) })
	view(mux, o, "stall", func(d *ObsDoc) *obs.StallStatus { return d.Stall })
	view(mux, o, "hotkeys", func(d *ObsDoc) *obs.SkewSnapshot { return d.Hotkeys })
	view(mux, o, "epochs", func(d *ObsDoc) *journal.Doc { return d.Epochs })
	view(mux, o, "timeseries", func(d *ObsDoc) *tsdb.Doc { return d.Timeseries })
	return mux
}

// view serves one field of the document at /debug/<name>.
func view[T any](mux *http.ServeMux, o Ops, name string, field func(*ObsDoc) *T) {
	mux.HandleFunc("/debug/"+name, func(w http.ResponseWriter, r *http.Request) {
		d := o.doc()
		if v := field(&d); v != nil {
			writeJSON(w, v)
			return
		}
		http.Error(w, name+": instrument not attached", http.StatusNotFound)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("core: ops document write: %v", err)
	}
}

// doc assembles the /debug/obs document.
func (o Ops) doc() ObsDoc {
	d := ObsDoc{ObsSummary: summarize(o.families()), Health: o.health()}
	if s := o.Server; s != nil {
		if s.skew != nil {
			sk := s.skew.Snapshot()
			d.Hotkeys = &sk
		}
		ep := s.journal.Doc()
		d.Epochs = &ep
	}
	if o.EM != nil {
		if d.Epochs == nil {
			// The EM process: a mirror with no server to attribute to.
			d.Epochs = &journal.Doc{Server: -1}
		}
		d.Epochs.EM = o.EM.Journal().Snapshot()
	}
	if o.Recorder != nil {
		ts := o.Recorder.Doc()
		d.Timeseries = &ts
		d.Stall = o.Recorder.StallStatus()
	}
	return d
}

// families gathers every family the surface exposes, merged by name.
func (o Ops) families() []metrics.Family {
	groups := [][]metrics.Family{metrics.RuntimeFamilies()}
	if s := o.Server; s != nil {
		groups = append(groups, s.MetricFamilies(), s.skew.MetricFamilies())
	}
	groups = append(groups, o.Recorder.MetricFamilies())
	if o.EM != nil {
		groups = append(groups, o.EM.MetricFamilies())
	}
	if o.Rebalancer != nil {
		groups = append(groups, o.Rebalancer.MetricFamilies())
	}
	if inst, ok := o.Net.(transport.Instrumented); ok {
		groups = append(groups, inst.NetMetrics().MetricFamilies())
	}
	return metrics.Merge(groups...)
}

// health lists the failing readiness checks: an open stall episode, and a
// WAL whose last fsync is older than FsyncMaxAge.
func (o Ops) health() []string {
	var failing []string
	if ok, reason := o.Recorder.Health(); !ok {
		failing = append(failing, "stall: "+reason)
	}
	if s := o.Server; s != nil && s.durability != nil && o.FsyncMaxAge > 0 {
		if age, ok := s.durability.LastSyncAge(); ok && age > o.FsyncMaxAge {
			failing = append(failing, fmt.Sprintf("wal: last fsync %s ago (max %s): commits are not reaching disk",
				age.Round(time.Millisecond), o.FsyncMaxAge))
		}
	}
	return failing
}

// summarize reads the dashboard scalars off a family set.
func summarize(fams []metrics.Family) ObsSummary {
	by := make(map[string]metrics.Family, len(fams))
	for _, f := range fams {
		by[f.Name] = f
	}
	total := func(name string) float64 { return by[name].Total() }
	p99 := func(name string) float64 { return float64(by[name].TotalHist().Quantile(0.99)) / 1e9 }
	sum := ObsSummary{
		CommittedEpoch:       uint64(total(FamCommittedEpoch)),
		CurrentEpoch:         uint64(total(FamServerEpoch)),
		PlacementGen:         uint64(total(FamPlacementGen)),
		MigrationInflight:    total(FamMigrationInflight),
		MigrationLastHandoff: uint64(total(FamMigrationLastHandoff)),
		TxnsCommitted:        total(FamTxnsCommitted),
		TxnsAborted:          total(FamTxnsAborted),
		P99Install:           p99(FamStageInstall),
		P99Wait:              p99(FamStageWait),
		P99Compute:           p99(FamStageCompute),
		StoreThaws:           total(FamStoreThaws),
		StoreFolds:           total(FamStoreFolds),
		StoreFrozen:          total(FamStoreFrozen),
		StoreFrozenBytes:     total(FamStoreFrozenBytes),
		StoreHistories:       total(FamStoreHistories),
		DeferredUnlanded:     total(FamDeferredUnlanded),
		Goroutines:           total(metrics.FamRuntimeGoroutines),
		HeapBytes:            total(metrics.FamRuntimeHeapBytes),
	}
	for _, ser := range by[FamTxnAbortReason].Series {
		for _, l := range ser.Labels {
			if l.Key == "reason" && ser.Value > 0 {
				if sum.AbortReasons == nil {
					sum.AbortReasons = make(map[string]float64)
				}
				sum.AbortReasons[l.Value] += ser.Value
			}
		}
	}
	return sum
}
