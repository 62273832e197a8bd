package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"alohadb/internal/metrics"
)

// Abort-reason taxonomy indices. Every aborted transaction lands in
// exactly one bucket, derived from the TxnResult reason string — the
// classification an operator needs to tell "the workload hit a
// constraint" from "chaos ate the install call" from "placement churn
// outran the reroute budget" when the abort rate moves.
const (
	abortConstraint    = iota // phase-1 requirement or install rejection
	abortReroute              // WrongOwner reroute budget exhausted
	abortChaos                // injected fault (chaos transport)
	abortIndeterminate        // second-round rollback unacknowledged
	abortOther                // transport errors, everything else
	numAbortReasons
)

// AbortReasons maps taxonomy indices to their exported reason labels.
var AbortReasons = [numAbortReasons]string{
	abortConstraint:    "constraint",
	abortReroute:       "wrong-owner-reroute-exhausted",
	abortChaos:         "chaos-injected",
	abortIndeterminate: "crash-indeterminate",
	abortOther:         "other",
}

// classifyAbortReason buckets one abort by its TxnResult fields. An
// indeterminate rollback dominates: whatever caused the abort, the
// operator's first concern is that the outcome is not clean.
func classifyAbortReason(reason string, incomplete bool) int {
	switch {
	case incomplete:
		return abortIndeterminate
	case reason == ErrRerouteExhausted.Error():
		return abortReroute
	case strings.Contains(reason, "chaos: injected"):
		return abortChaos
	case strings.Contains(reason, "required key"):
		return abortConstraint
	default:
		return abortOther
	}
}

// serverStats aggregates per-server instruments: engine counters plus the
// Figure-10 stage histograms — functor installing (issue → installed),
// waiting for processing (installed → retrieved by a processor), and
// processing (handler run time) — and the transactions begun per committed
// epoch. All record calls
// are atomic and allocation-free; snapshots are taken by Stats (flat
// compatibility view) and MetricFamilies (self-describing families).
type serverStats struct {
	txnsCommitted atomic.Uint64
	txnsAborted   atomic.Uint64
	abortReasons  [numAbortReasons]atomic.Uint64
	readsServed   atomic.Uint64

	functorsInstalled atomic.Uint64
	functorsComputed  atomic.Uint64
	remoteReads       atomic.Uint64
	pushesSent        atomic.Uint64
	pushHits          atomic.Uint64
	onDemandComputes  atomic.Uint64
	versionsCompacted atomic.Uint64
	// deferredUnlanded counts determinate computations whose deferred
	// writes did not all land: each such version keeps its writes, frozen
	// history included. Imported and recovered versions keep theirs too,
	// and are not counted.
	deferredUnlanded atomic.Uint64

	installHist *metrics.Histogram // issue -> installed
	waitHist    *metrics.Histogram // installed -> retrieved by processor
	computeHist *metrics.Histogram // handler run time

	txnsPerEpoch *metrics.Histogram // transactions begun per committed epoch

	// Combiner dispatch sizes: how many remote reads/ensures each outbound
	// RPC carried (size 1 = the single-request fast path). Sum/Count give
	// the combining factor.
	readBatchHist   *metrics.Histogram
	ensureBatchHist *metrics.Histogram
}

// init builds the histograms; called once from NewServer.
func (s *serverStats) init() {
	s.installHist = metrics.NewHistogram(metrics.LatencyBounds())
	s.waitHist = metrics.NewHistogram(metrics.LatencyBounds())
	s.computeHist = metrics.NewHistogram(metrics.LatencyBounds())
	s.txnsPerEpoch = metrics.NewHistogram(metrics.CountBounds())
	s.readBatchHist = metrics.NewHistogram(metrics.CountBounds())
	s.ensureBatchHist = metrics.NewHistogram(metrics.CountBounds())
}

func (s *serverStats) recordInstall(d time.Duration) { s.installHist.ObserveDuration(d) }
func (s *serverStats) recordWait(d time.Duration)    { s.waitHist.ObserveDuration(d) }
func (s *serverStats) recordCompute(d time.Duration) { s.computeHist.ObserveDuration(d) }
func (s *serverStats) recordReadBatch(n int)         { s.readBatchHist.Observe(int64(n)) }
func (s *serverStats) recordEnsureBatch(n int)       { s.ensureBatchHist.Observe(int64(n)) }

// recordAbortReason buckets one abort into the reason taxonomy
// (allocation-free: the classification is string compares against the
// already-built reason).
func (s *serverStats) recordAbortReason(reason string, incomplete bool) {
	s.abortReasons[classifyAbortReason(reason, incomplete)].Add(1)
}

// Stats is an immutable snapshot of one server's counters. It is the
// flat compatibility view; MetricFamilies is the structured API carrying
// the full distributions.
type Stats struct {
	TxnsCommitted     uint64
	TxnsAborted       uint64
	ReadsServed       uint64
	FunctorsInstalled uint64
	FunctorsComputed  uint64
	RemoteReads       uint64
	PushesSent        uint64
	PushHits          uint64
	OnDemandComputes  uint64
	VersionsCompacted uint64

	// Stage breakdown (Figure 10): cumulative time and event counts,
	// derived from the stage histograms.
	InstallTime  time.Duration
	InstallCount uint64
	WaitTime     time.Duration
	WaitCount    uint64
	ComputeTime  time.Duration
	ComputeCount uint64

	// Combiner effectiveness: outbound MsgFetch dispatches carrying reads
	// (ReadBatches) or ensures (EnsureBatches) and the ops of each kind
	// they carried. BatchedReads/ReadBatches is the read combining factor
	// (1.0 = nothing combined).
	ReadBatches    uint64
	BatchedReads   uint64
	EnsureBatches  uint64
	BatchedEnsures uint64
}

// Add accumulates another snapshot into s, for cluster-wide aggregation.
func (s *Stats) Add(o Stats) {
	s.TxnsCommitted += o.TxnsCommitted
	s.TxnsAborted += o.TxnsAborted
	s.ReadsServed += o.ReadsServed
	s.FunctorsInstalled += o.FunctorsInstalled
	s.FunctorsComputed += o.FunctorsComputed
	s.RemoteReads += o.RemoteReads
	s.PushesSent += o.PushesSent
	s.PushHits += o.PushHits
	s.OnDemandComputes += o.OnDemandComputes
	s.VersionsCompacted += o.VersionsCompacted
	s.InstallTime += o.InstallTime
	s.InstallCount += o.InstallCount
	s.WaitTime += o.WaitTime
	s.WaitCount += o.WaitCount
	s.ComputeTime += o.ComputeTime
	s.ComputeCount += o.ComputeCount
	s.ReadBatches += o.ReadBatches
	s.BatchedReads += o.BatchedReads
	s.EnsureBatches += o.EnsureBatches
	s.BatchedEnsures += o.BatchedEnsures
}

// String renders a compact operator-facing summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"txns=%d aborts=%d reads=%d functors=%d/%d remote-reads=%d pushes=%d/%d hits compacted=%d",
		s.TxnsCommitted, s.TxnsAborted, s.ReadsServed,
		s.FunctorsComputed, s.FunctorsInstalled,
		s.RemoteReads, s.PushesSent, s.PushHits, s.VersionsCompacted)
}

func (s *serverStats) snapshot() Stats {
	install := s.installHist.Snapshot()
	wait := s.waitHist.Snapshot()
	compute := s.computeHist.Snapshot()
	readBatch := s.readBatchHist.Snapshot()
	ensureBatch := s.ensureBatchHist.Snapshot()
	return Stats{
		TxnsCommitted:     s.txnsCommitted.Load(),
		TxnsAborted:       s.txnsAborted.Load(),
		ReadsServed:       s.readsServed.Load(),
		FunctorsInstalled: s.functorsInstalled.Load(),
		FunctorsComputed:  s.functorsComputed.Load(),
		RemoteReads:       s.remoteReads.Load(),
		PushesSent:        s.pushesSent.Load(),
		PushHits:          s.pushHits.Load(),
		OnDemandComputes:  s.onDemandComputes.Load(),
		VersionsCompacted: s.versionsCompacted.Load(),
		InstallTime:       time.Duration(install.Sum),
		InstallCount:      install.Count,
		WaitTime:          time.Duration(wait.Sum),
		WaitCount:         wait.Count,
		ComputeTime:       time.Duration(compute.Sum),
		ComputeCount:      compute.Count,
		ReadBatches:       readBatch.Count,
		BatchedReads:      uint64(readBatch.Sum),
		EnsureBatches:     ensureBatch.Count,
		BatchedEnsures:    uint64(ensureBatch.Sum),
	}
}

// Metric family names exported by every server. cmd/aloha-server serves
// them on /metrics; DB.Metrics returns them programmatically.
const (
	FamTxnsCommitted     = "aloha_txns_committed_total"
	FamTxnsAborted       = "aloha_txns_aborted_total"
	FamTxnAbortReason    = "aloha_txn_abort_total"
	FamReadsServed       = "aloha_reads_served_total"
	FamFunctorsInstalled = "aloha_functors_installed_total"
	FamFunctorsComputed  = "aloha_functors_computed_total"
	FamRemoteReads       = "aloha_remote_reads_total"
	FamPushesSent        = "aloha_pushes_sent_total"
	FamPushHits          = "aloha_push_hits_total"
	FamOnDemandComputes  = "aloha_on_demand_computes_total"
	FamVersionsCompacted = "aloha_versions_compacted_total"
	FamDeferredUnlanded  = "aloha_deferred_unlanded_total"
	FamStageInstall      = "aloha_stage_install_seconds"
	FamStageWait         = "aloha_stage_wait_seconds"
	FamStageCompute      = "aloha_stage_compute_seconds"
	FamEpochTxns         = "aloha_epoch_txns"
	FamReadBatchSize     = "aloha_read_batch_size"
	FamEnsureBatchSize   = "aloha_ensure_batch_size"
	FamCommittedEpoch    = "aloha_committed_epoch"
	FamServerEpoch       = "aloha_server_epoch"
	FamPlacementGen      = "aloha_placement_generation"
	FamStoreKeys         = "aloha_store_keys"
	FamStoreRowBytes     = "aloha_store_row_bytes"
	FamStoreThaws        = "aloha_store_thaws_total"
	FamStoreFolds        = "aloha_store_folds_total"
	FamStoreFrozen       = "aloha_store_frozen_versions"
	FamStoreFrozenBytes  = "aloha_store_frozen_bytes"
	FamStoreHistories    = "aloha_store_histories"
)

// families builds the unlabeled family list; the server tags each series
// with its server label before exposing them.
func (s *serverStats) families() []metrics.Family {
	counter := func(name, help string, v uint64) metrics.Family {
		return metrics.Family{
			Name: name, Help: help, Kind: metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(v)},
		}
	}
	hist := func(name, help string, unit metrics.Unit, h *metrics.Histogram) metrics.Family {
		return metrics.Family{
			Name: name, Help: help, Kind: metrics.KindHistogram, Unit: unit,
			Series: []metrics.Series{metrics.HistSeries(h.Snapshot())},
		}
	}
	abortSeries := make([]metrics.Series, 0, numAbortReasons)
	for i := 0; i < numAbortReasons; i++ {
		abortSeries = append(abortSeries, metrics.CounterSeries(
			s.abortReasons[i].Load(), metrics.Label{Key: "reason", Value: AbortReasons[i]}))
	}
	return []metrics.Family{
		counter(FamTxnsCommitted, "Transactions whose write-only phase succeeded.", s.txnsCommitted.Load()),
		counter(FamTxnsAborted, "Transactions rolled back by the second round.", s.txnsAborted.Load()),
		{
			Name: FamTxnAbortReason, Help: "Aborted transactions by reason taxonomy (constraint, wrong-owner-reroute-exhausted, chaos-injected, crash-indeterminate, other).",
			Kind:   metrics.KindCounter,
			Series: abortSeries,
		},
		counter(FamReadsServed, "Read requests served by this partition.", s.readsServed.Load()),
		counter(FamFunctorsInstalled, "Functors installed as in-epoch versions.", s.functorsInstalled.Load()),
		counter(FamFunctorsComputed, "Functors resolved to final states.", s.functorsComputed.Load()),
		counter(FamRemoteReads, "Historical reads issued to other partitions during computation.", s.remoteReads.Load()),
		counter(FamPushesSent, "Proactive value pushes sent to recipient partitions.", s.pushesSent.Load()),
		counter(FamPushHits, "Computations served from the proactive-push cache.", s.pushHits.Load()),
		counter(FamOnDemandComputes, "Functors computed on demand at read time.", s.onDemandComputes.Load()),
		counter(FamVersionsCompacted, "Historical versions removed by retention.", s.versionsCompacted.Load()),
		counter(FamDeferredUnlanded, "Determinate computations whose deferred writes did not all land (a failed apply or forward, or an apply to a replica being handed off); their versions keep the writes in frozen history.", s.deferredUnlanded.Load()),
		hist(FamStageInstall, "Transaction issue to all functors installed (Figure 10 stage 1).", metrics.UnitSeconds, s.installHist),
		hist(FamStageWait, "Functor install to processor dequeue (Figure 10 stage 2).", metrics.UnitSeconds, s.waitHist),
		hist(FamStageCompute, "Functor handler run time (Figure 10 stage 3).", metrics.UnitSeconds, s.computeHist),
		hist(FamEpochTxns, "Transactions this server began per committed epoch.", metrics.UnitNone, s.txnsPerEpoch),
		hist(FamReadBatchSize, "Remote reads carried per combiner dispatch (1 = uncombined).", metrics.UnitNone, s.readBatchHist),
		hist(FamEnsureBatchSize, "Remote ensures carried per combiner dispatch (1 = uncombined).", metrics.UnitNone, s.ensureBatchHist),
	}
}
