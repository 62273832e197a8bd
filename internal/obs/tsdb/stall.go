package tsdb

import (
	"context"
	"runtime"
	"time"

	"alohadb/internal/metrics"
	"alohadb/internal/obs"
)

// The stall rule. The paper's epoch switch waits for every front-end's
// revoke ack, so one unacked server stalls the whole cluster, and every
// server sees it the same way: its committed-epoch frontier stops moving.
// The rule reads the frontier each tick already samples (Config.Epoch):
// an episode opens once it has not changed for StallThreshold, and clears
// on the first tick it has. Each episode is one annotation of kind
// AnomalyStall carrying one capture.
//
// What captures can pin: each carries at most profileBytes of goroutine
// profile, and the annotation ring holds at most maxAnnotations of them.
// The rule's open episode adds none: the ring drops oldest first, so once
// it has let an open episode go it holds no older capture either. That is
// 64 × 16 KiB = 1 MiB of profile text at worst, besides each capture's
// per-peer and per-queue rows (TestStallCaptureBytesBound).

// profileBytes bounds the goroutine profile attached to each capture.
const profileBytes = 16 << 10

// stallSeries is the series name a stall annotation carries: the
// timeline's committed-epoch column, not one of Config.Sources.
const stallSeries = "committed_epoch"

// stallRule is the rule's state, under Recorder.mu.
type stallRule struct {
	epoch uint64      // the frontier at its last change
	since time.Time   // when it last changed
	last  time.Time   // the newest tick
	open  *Annotation // the open episode, published or not
	total uint64      // episodes published
}

// checkStall runs the rule on a tick that sampled frontier e. Called with
// r.mu held, after r.n was advanced. It returns the episode this tick
// opened, which Sample publishes once its capture is taken.
func (r *Recorder) checkStall(now time.Time, e uint64) (*Annotation, time.Duration) {
	st := &r.stall
	if r.cfg.StallThreshold <= 0 {
		return nil, 0
	}
	st.last = now
	if r.n == 1 || e != st.epoch {
		if a := st.open; a != nil {
			a.Active, a.EndMS, a.ToEpoch = false, now.UnixMilli(), e
			a.Observed = now.Sub(st.since).Seconds()
			a.GatingStage = r.gating(a.FromEpoch, e)
			st.open = nil
			r.stalled.Store(false)
		}
		st.epoch, st.since = e, now
		return nil, 0
	}
	age := now.Sub(st.since)
	if a := st.open; a != nil {
		a.EndMS, a.Observed = now.UnixMilli(), age.Seconds()
		return nil, 0
	}
	if age < r.cfg.StallThreshold {
		return nil, 0
	}
	st.open = &Annotation{
		Series:      stallSeries,
		Kind:        AnomalyStall,
		Active:      true,
		StartMS:     st.since.UnixMilli(),
		EndMS:       now.UnixMilli(),
		Baseline:    r.cfg.StallThreshold.Seconds(),
		Observed:    age.Seconds(),
		FromEpoch:   e,
		ToEpoch:     e,
		GatingStage: r.gating(e, e),
	}
	return st.open, age
}

// publishStall takes an episode's capture outside r.mu, then adds the
// annotation to the ring with the capture attached: a reader never sees an
// episode without its snapshot. The episode counts as open (Health,
// StallActive, the gauges) from here; a concurrent Sample that saw the
// frontier move meanwhile has closed it already, and it goes in closed.
func (r *Recorder) publishStall(a *Annotation, now time.Time, age time.Duration) {
	snap := r.capture(now, age)
	r.mu.Lock()
	a.Stall = snap
	r.anns.Add(a)
	r.stall.total++
	r.stalled.Store(a.Active)
	r.mu.Unlock()
}

// capture runs the capture hook, bounded by the threshold so a hung probe
// cannot hold the tick past one episode, and fills the recorder's fields,
// the goroutine profile among them.
func (r *Recorder) capture(now time.Time, age time.Duration) *obs.StallSnapshot {
	var snap *obs.StallSnapshot
	if r.cfg.StallCapture != nil {
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.StallThreshold)
		snap = r.cfg.StallCapture(ctx)
		cancel()
	}
	if snap == nil {
		snap = &obs.StallSnapshot{}
	}
	snap.Server = r.cfg.Server
	snap.DetectedAt = now
	snap.Age = age
	snap.Threshold = r.cfg.StallThreshold
	snap.Goroutines = runtime.NumGoroutine()
	buf := make([]byte, profileBytes)
	snap.GoroutineProfile = string(buf[:runtime.Stack(buf, true)])
	return snap
}

// StallActive reports whether a stall episode is open. Nil-safe and
// lock-free: Committed stamps it on every epoch's journal record, and must
// not wait out a tick, which holds r.mu across every source read.
func (r *Recorder) StallActive() bool {
	return r != nil && r.stalled.Load()
}

// Health returns (ok, reason) for readiness probes: not ok while a stall
// episode is open. Nil-safe (always healthy).
func (r *Recorder) Health() (bool, string) {
	if !r.StallActive() {
		return true, ""
	}
	r.mu.Lock()
	age := r.stall.last.Sub(r.stall.since)
	r.mu.Unlock()
	return false, "no epoch progress for " + age.Round(time.Millisecond).String() +
		" (threshold " + r.cfg.StallThreshold.String() + ")"
}

// StallStatus assembles the /debug/stall document. Nil without a stall
// rule (and on a nil recorder).
func (r *Recorder) StallStatus() *obs.StallStatus {
	if r == nil || r.cfg.StallThreshold <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &obs.StallStatus{
		Active:      r.stalled.Load(),
		StallsTotal: r.stall.total,
		ProgressAge: r.stall.last.Sub(r.stall.since),
		Threshold:   r.cfg.StallThreshold,
	}
	open := r.stall.open
	if !st.Active {
		open = nil
	}
	anns, _ := r.anns.Snapshot()
	for _, a := range anns {
		if a.Stall != nil && a != open {
			st.Snapshots = append(st.Snapshots, a.Stall)
		}
	}
	// The open episode's capture goes last even once the ring has let its
	// annotation go, so a reader can name the peers of the open stall.
	if open != nil {
		st.Snapshots = append(st.Snapshots, open.Stall)
	}
	return st
}

// Stall metric family names.
const (
	FamStallActive = "aloha_stall_active"
	FamStallsTotal = "aloha_stalls_total"
	FamEpochAge    = "aloha_epoch_age_seconds"
)

// MetricFamilies renders the stall rule's gauges. Nil without a stall
// rule (and on a nil recorder).
func (r *Recorder) MetricFamilies() []metrics.Family {
	if r == nil || r.cfg.StallThreshold <= 0 {
		return nil
	}
	r.mu.Lock()
	total, age := r.stall.total, r.stall.last.Sub(r.stall.since)
	active := int64(0)
	if r.stalled.Load() {
		active = 1
	}
	r.mu.Unlock()
	return []metrics.Family{
		{
			Name: FamStallActive, Help: "1 while an epoch-progress stall episode is open.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(active)},
		},
		{
			Name: FamStallsTotal, Help: "Epoch-progress stall episodes detected since start.",
			Kind:   metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(total)},
		},
		{
			Name: FamEpochAge, Help: "Time the committed-epoch frontier had not advanced, at the recorder's newest tick.",
			Kind: metrics.KindGauge, Unit: metrics.UnitSeconds,
			Series: []metrics.Series{metrics.GaugeSeries(int64(age))},
		},
	}
}
