package core

import (
	"math"
	"runtime"
	rm "runtime/metrics"
	"time"

	"alohadb/internal/epoch"
	"alohadb/internal/obs/journal"
	"alohadb/internal/obs/tsdb"
)

// This file is the server side of the metrics flight recorder
// (internal/obs/tsdb): the curated source set every deployment records —
// commit/abort throughput, the abort-reason taxonomy, per-stage epoch
// close-out quantiles from the journal, visibility lag, send-queue depth,
// WAL fsync age, and runtime health — each with the anomaly thresholds the
// soak gates care about — plus the stall rule on the committed-epoch
// frontier, whose capture is StallCapture.

// SetMaxQueueDepthSource installs an allocation-free callback reporting
// the deepest outbound transport send queue, sampled by the flight
// recorder every tick (the TCP network exposes one; the in-memory mesh
// has no queues). Set before the recorder starts.
func (s *Server) SetMaxQueueDepthSource(fn func() int) {
	s.maxQueueDepth = fn
}

// runtimeSampler reads the runtime's heap and GC telemetry into a
// preallocated sample buffer, one runtime/metrics read per tick: the
// heap source refreshes the buffer, the gc source (registered after it,
// sampled in order within the same tick) reuses it.
type runtimeSampler struct {
	samples [2]rm.Sample
}

func newRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{}
	rs.samples[0].Name = "/memory/classes/heap/objects:bytes"
	rs.samples[1].Name = "/gc/cycles/total:gc-cycles"
	return rs
}

func (rs *runtimeSampler) heap() float64 {
	rm.Read(rs.samples[:])
	if rs.samples[0].Value.Kind() != rm.KindUint64 {
		return math.NaN()
	}
	return float64(rs.samples[0].Value.Uint64())
}

func (rs *runtimeSampler) gcCycles() float64 {
	if rs.samples[1].Value.Kind() != rm.KindUint64 {
		return 0
	}
	return float64(rs.samples[1].Value.Uint64())
}

// NewRecorder builds this server's flight recorder, the one its epoch
// journal's stall marker reads: the caller sets the cadence (Interval) and
// the stall threshold, and owns Start/Stop; the curated sources, the
// committed-epoch sample clock, the stall capture and the journal gating
// cross-link are wired here (caller-set Epoch, Gating and StallCapture are
// kept, so tests can substitute them). Extra sources (e.g. the
// cluster-singleton migration gauge) are appended after the curated set.
// Set the queue-depth sources before building the recorder — its sources
// and capture read the fields the setters fill.
func (s *Server) NewRecorder(cfg tsdb.Config, extra ...tsdb.Source) *tsdb.Recorder {
	cfg.Server = s.id
	if cfg.Epoch == nil {
		cfg.Epoch = func() uint64 { return uint64(s.CommittedEpoch()) }
	}
	if cfg.Gating == nil {
		cfg.Gating = s.journal.GatingBetween
	}
	if cfg.StallCapture == nil {
		cfg.StallCapture = s.StallCapture
	}

	src := []tsdb.Source{
		{Name: "commit_rate", Unit: "txn/s", Kind: tsdb.KindRate,
			Value:  func() float64 { return float64(s.stats.txnsCommitted.Load()) },
			Detect: tsdb.Detect{DropFrac: 0.3, MinBaseline: 20}},
		{Name: "abort_rate", Unit: "txn/s", Kind: tsdb.KindRate,
			Value:  func() float64 { return float64(s.stats.txnsAborted.Load()) },
			Detect: tsdb.Detect{RiseFactor: 3, MinBaseline: 5}},
		{Name: "install_p50", Unit: "seconds", Kind: tsdb.KindQuantile,
			Hist: s.stats.installHist, Q: 0.5, Scale: 1e-9},
		{Name: "install_p99", Unit: "seconds", Kind: tsdb.KindQuantile,
			Hist: s.stats.installHist, Q: 0.99, Scale: 1e-9,
			Detect: tsdb.Detect{RiseFactor: 2.5, MinBaseline: 0.002}},
		{Name: "visibility_lag_epochs", Unit: "epochs", Kind: tsdb.KindGauge,
			Value:  func() float64 { return float64(s.gen.Epoch()) - float64(s.CommittedEpoch()) },
			Detect: tsdb.Detect{RiseFactor: 3, MinBaseline: 3}},
	}
	for i := 0; i < numAbortReasons; i++ {
		i := i
		src = append(src, tsdb.Source{
			Name: "abort_" + AbortReasons[i], Unit: "txn/s", Kind: tsdb.KindRate,
			Value: func() float64 { return float64(s.stats.abortReasons[i].Load()) },
		})
	}
	// Per-stage close-out quantiles: the per-tick windowed view of the
	// journal's cumulative stage histograms, the series that lets a p99
	// excursion be seen (and blamed) minutes later.
	for stage := 0; stage < len(journal.StageNames); stage++ {
		h := s.journal.StageHist(stage)
		if h == nil {
			continue
		}
		name := "stage_" + journal.StageNames[stage]
		src = append(src,
			tsdb.Source{Name: name + "_p50", Unit: "seconds", Kind: tsdb.KindQuantile,
				Hist: h, Q: 0.5, Scale: 1e-9},
			tsdb.Source{Name: name + "_p99", Unit: "seconds", Kind: tsdb.KindQuantile,
				Hist: h, Q: 0.99, Scale: 1e-9,
				Detect: tsdb.Detect{RiseFactor: 3, MinBaseline: 0.001}},
		)
	}
	if s.maxQueueDepth != nil {
		fn := s.maxQueueDepth
		src = append(src, tsdb.Source{
			Name: "send_queue_max", Unit: "msgs", Kind: tsdb.KindGauge,
			Value:  func() float64 { return float64(fn()) },
			Detect: tsdb.Detect{RiseFactor: 4, MinBaseline: 32},
		})
	}
	if hook := s.durability; hook != nil {
		src = append(src, tsdb.Source{
			Name: "wal_fsync_age", Unit: "seconds", Kind: tsdb.KindGauge,
			Value: func() float64 {
				age, ok := hook.LastSyncAge()
				if !ok {
					return math.NaN()
				}
				return age.Seconds()
			},
		})
	}
	src = append(src, runtimeSources()...)
	cfg.Sources = append(src, extra...)
	rec := tsdb.New(cfg)
	s.rec.Store(rec)
	return rec
}

// runtimeSources are the runtime-health series every recorder carries.
func runtimeSources() []tsdb.Source {
	rs := newRuntimeSampler()
	return []tsdb.Source{
		{Name: "heap_bytes", Unit: "bytes", Kind: tsdb.KindGauge, Value: rs.heap},
		{Name: "gc_rate", Unit: "cycles/s", Kind: tsdb.KindRate, Value: rs.gcCycles},
		{Name: "goroutines", Unit: "goroutines", Kind: tsdb.KindGauge,
			Value: func() float64 { return float64(runtime.NumGoroutine()) }},
	}
}

// NewEMRecorder builds the epoch manager's flight recorder, stamped with its
// node ID: the cluster's heartbeat seen from the grantor's side — grant rate
// (a stalled cluster flatlines here first) and switch cost — plus runtime
// health, in the rings and document the servers use, so anomalies
// (grant-rate drop, switch-cost step-up) annotate themselves with the epoch
// range. The caller owns Start/Stop.
func NewEMRecorder(m *epoch.Manager, node int, interval time.Duration) *tsdb.Recorder {
	return tsdb.New(tsdb.Config{
		Server:   node,
		Interval: interval,
		Epoch:    func() uint64 { return uint64(m.Current()) },
		Sources: append([]tsdb.Source{
			{Name: "epoch_grant_rate", Unit: "epochs/s", Kind: tsdb.KindRate,
				Value:  func() float64 { return float64(m.Current()) },
				Detect: tsdb.Detect{DropFrac: 0.5, MinBaseline: 1}},
			{Name: "switch_mean", Unit: "seconds", Kind: tsdb.KindGauge,
				Value: func() float64 {
					n, total := m.SwitchStats()
					if n == 0 {
						return math.NaN()
					}
					return total.Seconds() / float64(n)
				}},
		}, runtimeSources()...),
	})
}

// MigrationSource builds the cluster-singleton migration-inflight gauge,
// attached to one server's recorder (convention: server 0) so cluster
// rings do not double-count it. Safe on a nil rebalancer.
func (c *Cluster) MigrationSource() tsdb.Source {
	reb := c.reb
	return tsdb.Source{
		Name: "migration_inflight", Unit: "moves", Kind: tsdb.KindGauge,
		Value: func() float64 { return float64(reb.Inflight()) },
	}
}
