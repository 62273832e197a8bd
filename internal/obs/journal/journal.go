// Package journal is the per-epoch lifecycle flight recorder: an
// always-on journal holding one fixed-size record per epoch per server,
// plus the epoch manager's mirror record. Where the stage
// histograms (internal/metrics) aggregate and the tracer (internal/trace)
// samples per transaction, the journal answers the question neither can:
// "why was epoch E slow, and which stage gated it?" — the epoch is the
// unit of atomic visibility and durability (paper §III-B), so end-to-end
// commit latency is exactly the epoch close-out path.
//
// A server record covers the whole close-out pipeline in arrival order:
// install (first/last install of the epoch, count and bytes), ack-wait
// (revoke arrival to revoke-ack, the §III-B quiescence), the
// Committed-broadcast receipt, seal, the durable marker (WAL append, flush
// and fsync), and the visibility publication — plus interference markers (active migration
// seals, an open stall episode, and the slowest pending functor with its
// trace cross-link). The EM mirror records the switch decision time,
// every server's ack arrival, and the commit broadcast, which is what
// cluster-wide critical-path attribution (internal/obs/clusterview) needs
// to name the ack straggler.
//
// Both keep their records in a ring (internal/ring) of depth epochs; an
// event for an epoch already overwritten is refused and counted as stale.
//
// The package follows the repo's observability convention (trace, obs):
// a nil *Journal is valid and inert, and every enabled hot-path record
// call is one slot lock and allocation-free (CI benchmarks guard both
// properties).
package journal

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"alohadb/internal/metrics"
	"alohadb/internal/ring"
)

// depth is the journal depth in epochs, of servers and the EM alike. At the
// paper's 25 ms default epoch it covers ~13 s of history — several scrape
// intervals — for ~100 KiB of fixed memory.
const depth = 512

// keyCap bounds the slowest-pending key bytes kept inline in a record
// (longer keys truncate); fixed so the hot path never allocates.
const keyCap = 48

// ftypeCap bounds the slowest-pending f-type name kept inline.
const ftypeCap = 12

// Stage indices of the server-side close-out pipeline. Stage durations are
// what the journal renders as aloha_epoch_stage_seconds{stage=...} and
// what critical-path attribution compares across servers.
const (
	StageInstall   = iota // first install -> last install (the install tail)
	StageAckWait          // revoke arrival -> revoke ack (in-flight drain)
	StageBroadcast        // revoke ack -> Committed receipt (EM barrier + broadcast)
	StageSeal             // Committed receipt -> all epoch versions sealed
	StageFsync            // the durable marker: WAL marker append, flush and fsync
	numStages
)

// StageNames maps stage indices to their exported labels.
var StageNames = [numStages]string{
	StageInstall:   "install",
	StageAckWait:   "ack-wait",
	StageBroadcast: "broadcast",
	StageSeal:      "seal",
	StageFsync:     "fsync",
}

// rec is the fixed-size in-ring record. All times are UnixNano wall-clock
// stamps (comparable across servers on one host or NTP-close hosts) except
// fsyncNS, which is a duration. Its epoch is the ring slot's seq.
type rec struct {
	installTxns     uint64
	installFunctors uint64
	installBytes    uint64
	firstInstallNS  int64
	lastInstallNS   int64

	ackStartNS int64
	ackEndNS   int64

	committedNS int64
	sealNS      int64
	fsyncNS     int64 // duration
	visibleNS   int64

	drained        int
	migrationSeals int
	stallActive    bool

	slowWaitNS  int64
	slowTrace   uint64
	slowKeyLen  uint8
	slowTypeLen uint8
	slowKey     [keyCap]byte
	slowType    [ftypeCap]byte

	gating int8 // local gating stage index, -1 until finalized
}

// Journal is one server's epoch lifecycle ring. A nil *Journal is valid
// and records nothing at zero cost, mirroring trace.Tracer and obs.Skew.
type Journal struct {
	server int
	ring   *ring.Ring[rec]

	stageHists [numStages]*metrics.Histogram
	gating     [numStages]atomic.Uint64
}

// New builds the journal of server.
func New(server int) *Journal {
	j := &Journal{server: server, ring: ring.New(depth, func(r *rec) { *r = rec{gating: -1} })}
	for i := range j.stageHists {
		j.stageHists[i] = metrics.NewHistogram(metrics.LatencyBounds())
	}
	return j
}

// Install records one installed transaction: functors functor versions
// totalling bytes key+argument bytes, at time now. Called on the install
// hot path — allocation-free, nil-safe.
func (j *Journal) Install(e uint64, functors, bytes int, now time.Time) {
	if j == nil {
		return
	}
	s := j.ring.Lock(e)
	if s == nil {
		return
	}
	ns := now.UnixNano()
	s.Val.installTxns++
	s.Val.installFunctors += uint64(functors)
	s.Val.installBytes += uint64(bytes)
	if s.Val.firstInstallNS == 0 || ns < s.Val.firstInstallNS {
		s.Val.firstInstallNS = ns
	}
	if ns > s.Val.lastInstallNS {
		s.Val.lastInstallNS = ns
	}
	s.Unlock()
}

// AckWaitStart records the revoke arrival: the server stops starting
// authorized epoch-e transactions and begins draining in-flight installs.
func (j *Journal) AckWaitStart(e uint64, now time.Time) {
	if j == nil {
		return
	}
	if s := j.ring.Lock(e); s != nil {
		s.Val.ackStartNS = now.UnixNano()
		s.Unlock()
	}
}

// AckWaitEnd records the revoke ack: every in-flight epoch-e transaction
// has completed its write-only phase (§III-B quiescence).
func (j *Journal) AckWaitEnd(e uint64, now time.Time) {
	if j == nil {
		return
	}
	if s := j.ring.Lock(e); s != nil {
		s.Val.ackEndNS = now.UnixNano()
		s.Unlock()
	}
}

// CommittedRecv records the Committed-broadcast receipt.
func (j *Journal) CommittedRecv(e uint64, now time.Time) {
	if j == nil {
		return
	}
	if s := j.ring.Lock(e); s != nil {
		s.Val.committedNS = now.UnixNano()
		s.Unlock()
	}
}

// SealDone records that every buffered version of the epoch is sealed
// (in-epoch -> out-epoch, Figure 4) and how many functors were drained.
func (j *Journal) SealDone(e uint64, now time.Time, drained int) {
	if j == nil {
		return
	}
	if s := j.ring.Lock(e); s != nil {
		s.Val.sealNS = now.UnixNano()
		s.Val.drained = drained
		s.Unlock()
	}
}

// Slowest records the epoch's slowest pending functor at commit time: its
// key (truncated to keyCap), f-type, queue wait, and owning transaction's
// trace ID (the /debug/traces cross-link). Copies into fixed buffers —
// no allocation.
func (j *Journal) Slowest(e uint64, key, ftype string, wait time.Duration, traceID uint64) {
	if j == nil {
		return
	}
	s := j.ring.Lock(e)
	if s == nil {
		return
	}
	s.Val.slowWaitNS = int64(wait)
	s.Val.slowTrace = traceID
	s.Val.slowKeyLen = uint8(copy(s.Val.slowKey[:], key))
	s.Val.slowTypeLen = uint8(copy(s.Val.slowType[:], ftype))
	s.Unlock()
}

// Durable records the durable-marker cost d: the whole LogEpochCommitted
// call (marker append, flush and fsync), the fsync stage.
func (j *Journal) Durable(e uint64, d time.Duration) {
	if j == nil {
		return
	}
	s := j.ring.Lock(e)
	if s == nil {
		return
	}
	s.Val.fsyncNS = int64(d)
	s.Unlock()
}

// Visible finalizes the record at visibility publication: epoch-e versions
// are readable. migrationSeals and stallActive are the interference
// markers sampled at this instant. Observes every stage duration into the
// aloha_epoch_stage_seconds histograms and counts the locally gating
// (largest) stage.
func (j *Journal) Visible(e uint64, now time.Time, migrationSeals int, stallActive bool) {
	if j == nil {
		return
	}
	s := j.ring.Lock(e)
	if s == nil {
		return
	}
	s.Val.visibleNS = now.UnixNano()
	s.Val.migrationSeals = migrationSeals
	s.Val.stallActive = stallActive
	var stages [numStages]int64
	stages[StageInstall] = stageSpan(s.Val.firstInstallNS, s.Val.lastInstallNS)
	// A revoke whose ack was never sent (the switch went on without it under
	// the manager's SwitchTimeout) waited until the Committed receipt.
	ackEnd := s.Val.ackEndNS
	if ackEnd == 0 {
		ackEnd = s.Val.committedNS
	}
	stages[StageAckWait] = stageSpan(s.Val.ackStartNS, ackEnd)
	stages[StageBroadcast] = stageSpan(s.Val.ackEndNS, s.Val.committedNS)
	stages[StageSeal] = stageSpan(s.Val.committedNS, s.Val.sealNS)
	stages[StageFsync] = s.Val.fsyncNS
	gating := int8(-1)
	var max int64
	for i, d := range stages {
		if d > max {
			max, gating = d, int8(i)
		}
	}
	s.Val.gating = gating
	s.Unlock()
	for i, d := range stages {
		if d > 0 {
			j.stageHists[i].Observe(d)
		}
	}
	if gating >= 0 {
		j.gating[gating].Add(1)
	}
}

// stageSpan returns the positive span between two stamps, zero when either
// is missing (an epoch that skipped the stage must not pollute the
// distribution with wall-clock-sized garbage).
func stageSpan(from, to int64) int64 {
	if from == 0 || to == 0 || to < from {
		return 0
	}
	return to - from
}

// StageHist returns the cumulative close-out histogram for one stage (an
// index into StageNames), letting the flight recorder (internal/obs/tsdb)
// sample windowed per-stage quantiles. Nil-safe.
func (j *Journal) StageHist(stage int) *metrics.Histogram {
	if j == nil || stage < 0 || stage >= numStages {
		return nil
	}
	return j.stageHists[stage]
}

// GatingBetween names the dominant local gating stage across the complete
// records whose epoch falls in [from, to] — the attribution the flight
// recorder stamps on an anomaly window ("throughput dropped across epochs
// 410-460, gated on ack-wait"). Empty when no complete record in the
// range survives in the ring. Nil-safe.
func (j *Journal) GatingBetween(from, to uint64) string {
	if j == nil || from == 0 || to < from {
		return ""
	}
	var counts [numStages]int
	found := false
	j.ring.Each(func(e uint64, r *rec) {
		if e >= from && e <= to && r.committedNS > 0 && r.visibleNS > 0 && r.gating >= 0 {
			counts[r.gating]++
			found = true
		}
	})
	if !found {
		return ""
	}
	best := 0
	for i := 1; i < numStages; i++ {
		if counts[i] > counts[best] {
			best = i
		}
	}
	return StageNames[best]
}

// Record is one exported journal entry (the /debug/epochs JSON row). All
// *_unix_ns fields are wall-clock stamps; *_ns fields are durations.
type Record struct {
	Epoch  uint64 `json:"epoch"`
	Server int    `json:"server"`

	InstallTxns     uint64 `json:"install_txns,omitempty"`
	InstallFunctors uint64 `json:"install_functors,omitempty"`
	InstallBytes    uint64 `json:"install_bytes,omitempty"`
	FirstInstallNS  int64  `json:"first_install_unix_ns,omitempty"`
	LastInstallNS   int64  `json:"last_install_unix_ns,omitempty"`

	AckWaitStartNS int64 `json:"ack_wait_start_unix_ns,omitempty"`
	AckWaitEndNS   int64 `json:"ack_wait_end_unix_ns,omitempty"`

	CommittedNS int64 `json:"committed_unix_ns,omitempty"`
	SealNS      int64 `json:"seal_done_unix_ns,omitempty"`
	FsyncNS     int64 `json:"wal_fsync_ns,omitempty"`
	VisibleNS   int64 `json:"visible_unix_ns,omitempty"`

	FunctorsCommitted int  `json:"functors_committed,omitempty"`
	MigrationSeals    int  `json:"migration_seals,omitempty"`
	StallActive       bool `json:"stall_active,omitempty"`

	SlowestKey    string `json:"slowest_key,omitempty"`
	SlowestFType  string `json:"slowest_f_type,omitempty"`
	SlowestWaitNS int64  `json:"slowest_wait_ns,omitempty"`
	SlowestTrace  string `json:"slowest_trace,omitempty"`

	// LocalGatingStage is the largest stage on this server alone; the
	// cluster-wide critical path is computed by clusterview.MergeEpochs.
	LocalGatingStage string `json:"local_gating_stage,omitempty"`
}

// Complete reports whether the record covers the whole close-out (the
// epoch committed and published visibility on this server). Attribution
// only trusts complete records.
func (r Record) Complete() bool { return r.CommittedNS > 0 && r.VisibleNS > 0 }

// Snapshot exports the ring's records, oldest epoch first. Snapshot
// allocates freely — it runs at scrape cadence, not on the hot path.
// Nil-safe (returns nil).
func (j *Journal) Snapshot() []Record {
	if j == nil {
		return nil
	}
	var out []Record
	j.ring.Each(func(e uint64, r *rec) {
		rec := Record{
			Epoch:             e,
			Server:            j.server,
			InstallTxns:       r.installTxns,
			InstallFunctors:   r.installFunctors,
			InstallBytes:      r.installBytes,
			FirstInstallNS:    r.firstInstallNS,
			LastInstallNS:     r.lastInstallNS,
			AckWaitStartNS:    r.ackStartNS,
			AckWaitEndNS:      r.ackEndNS,
			CommittedNS:       r.committedNS,
			SealNS:            r.sealNS,
			FsyncNS:           r.fsyncNS,
			VisibleNS:         r.visibleNS,
			FunctorsCommitted: r.drained,
			MigrationSeals:    r.migrationSeals,
			StallActive:       r.stallActive,
			SlowestKey:        string(r.slowKey[:r.slowKeyLen]),
			SlowestFType:      string(r.slowType[:r.slowTypeLen]),
			SlowestWaitNS:     r.slowWaitNS,
		}
		if r.slowTrace != 0 {
			rec.SlowestTrace = fmt.Sprintf("%016x", r.slowTrace)
		}
		if r.gating >= 0 {
			rec.LocalGatingStage = StageNames[r.gating]
		}
		out = append(out, rec)
	})
	sort.Slice(out, func(a, b int) bool { return out[a].Epoch < out[b].Epoch })
	return out
}

// Doc is the /debug/epochs JSON document: one server's journal plus, when
// the epoch manager is co-located (embedded clusters, the EM process), its
// mirror records.
type Doc struct {
	Server  int        `json:"server"`
	Ring    int        `json:"ring"`
	Stale   uint64     `json:"stale_events,omitempty"`
	Records []Record   `json:"records,omitempty"`
	EM      []EMRecord `json:"em,omitempty"`
}

// Doc assembles the journal's document. Nil-safe (zero Doc).
func (j *Journal) Doc() Doc {
	if j == nil {
		return Doc{}
	}
	return Doc{Server: j.server, Ring: depth, Stale: j.ring.Stale(), Records: j.Snapshot()}
}

// Metric family names exported by the journal.
const (
	// FamEpochStage is the per-stage epoch close-out histogram, one series
	// per stage label.
	FamEpochStage = "aloha_epoch_stage_seconds"
	// FamEpochGating counts epochs per locally gating (largest) stage.
	FamEpochGating = "aloha_epoch_gating_stage_total"
)

// MetricFamilies renders the stage histograms and gating counters, one
// series per stage labeled stage="...". Nil-safe (empty).
func (j *Journal) MetricFamilies() []metrics.Family {
	if j == nil {
		return nil
	}
	stageSeries := make([]metrics.Series, 0, numStages)
	gatingSeries := make([]metrics.Series, 0, numStages)
	for i := 0; i < numStages; i++ {
		lbl := metrics.Label{Key: "stage", Value: StageNames[i]}
		stageSeries = append(stageSeries, metrics.HistSeries(j.stageHists[i].Snapshot(), lbl))
		gatingSeries = append(gatingSeries, metrics.CounterSeries(j.gating[i].Load(), lbl))
	}
	return []metrics.Family{
		{
			Name: FamEpochStage, Help: "Epoch close-out stage durations (install tail, ack-wait, broadcast, seal, fsync).",
			Kind: metrics.KindHistogram, Unit: metrics.UnitSeconds,
			Series: stageSeries,
		},
		{
			Name: FamEpochGating, Help: "Epochs whose locally largest close-out stage was this stage.",
			Kind:   metrics.KindCounter,
			Series: gatingSeries,
		},
	}
}
