package tsdb

import "math"

// Detect configures per-series anomaly detection: a level-shift test
// comparing the mean of a short recent window against the mean of the
// trailing baseline window before it. It deliberately models only the
// failure shapes the soak gates care about — a sustained throughput
// collapse, a sustained tail blow-up, a stall starting — and accepts a
// shifted level as the new baseline once the trailing window slides past
// the transition (the annotation records the transition itself).
type Detect struct {
	// DropFrac flags a recent mean below baseline*(1-DropFrac), e.g. 0.25
	// flags a 25% throughput drop. Zero disables the drop test.
	DropFrac float64
	// RiseFactor flags a recent mean above max(baseline, MinBaseline) *
	// RiseFactor, e.g. 2 flags a doubled p99. Zero disables the rise test.
	RiseFactor float64
	// Onset flags any recent activity on a series whose baseline is zero
	// (stall count going 0 -> nonzero).
	Onset bool
	// MinBaseline is the noise floor: drop tests are suppressed below it,
	// and rise tests measure against at least it, so a 100µs -> 300µs
	// wiggle on an idle series does not page anyone.
	MinBaseline float64
}

func (d Detect) enabled() bool {
	return d.DropFrac > 0 || d.RiseFactor > 0 || d.Onset
}

// The detection windows, in ticks: the mean of the recent window (3, so a
// single noisy tick cannot open an anomaly) is tested against the mean of
// the baseline window before it, once both are full (cold-start
// suppression). maxAnnotations bounds the annotation ring.
const (
	recentWindow   = 3
	baselineWindow = 24
	maxAnnotations = 64
)

// Annotation kinds.
const (
	AnomalyDrop  = "drop"
	AnomalyRise  = "rise"
	AnomalyOnset = "onset"
)

// Annotation marks a window where a series departed its trailing
// baseline. From/ToEpoch map the window onto the committed-epoch
// frontier, and GatingStage carries the epoch journal's dominant
// critical-path attribution for those epochs — the cross-link that turns
// "throughput dropped here" into "throughput dropped here, gated on
// ack-wait".
type Annotation struct {
	Series string `json:"series"`
	Kind   string `json:"kind"` // drop | rise | onset
	// Active is true while the window is still open.
	Active  bool  `json:"active"`
	StartMS int64 `json:"start_unix_ms"`
	EndMS   int64 `json:"end_unix_ms,omitempty"`
	// Baseline is the trailing-window mean when the anomaly opened;
	// Observed is the worst recent-window mean seen while open.
	Baseline float64 `json:"baseline"`
	Observed float64 `json:"observed"`
	// FromEpoch/ToEpoch bound the window on the epoch frontier (0 when
	// the recorder has no epoch clock).
	FromEpoch uint64 `json:"from_epoch,omitempty"`
	ToEpoch   uint64 `json:"to_epoch,omitempty"`
	// GatingStage is the journal's dominant gating stage across the
	// epoch window (empty when no journal is wired).
	GatingStage string `json:"gating_stage,omitempty"`
}

// detect runs the level-shift test for series i after a tick. Called with
// r.mu held, after r.n was advanced.
func (r *Recorder) detect(i int, s *series, nowMS int64, epoch uint64) {
	d := s.src.Detect
	if !d.enabled() || r.n < recentWindow+baselineWindow {
		return
	}
	recent, rok := r.windowMean(i, 0, recentWindow)
	baseline, bok := r.windowMean(i, recentWindow, baselineWindow)
	if !rok || !bok {
		return
	}
	kind := ""
	switch {
	case d.Onset && baseline <= 0 && recent > 0:
		kind = AnomalyOnset
	case d.DropFrac > 0 && baseline >= d.MinBaseline && baseline > 0 &&
		recent < baseline*(1-d.DropFrac):
		kind = AnomalyDrop
	case d.RiseFactor > 0 && recent > math.Max(baseline, d.MinBaseline)*d.RiseFactor:
		kind = AnomalyRise
	}

	if a := s.open; a != nil {
		if kind == "" {
			// Condition cleared: close the window and refresh the journal
			// attribution over its final epoch span.
			a.Active = false
			a.EndMS = nowMS
			a.ToEpoch = epoch
			a.GatingStage = r.gating(a.FromEpoch, epoch)
			s.open = nil
			return
		}
		a.EndMS = nowMS
		a.ToEpoch = epoch
		// Keep the attribution live while the window is open so an
		// operator watching /debug/timeseries mid-incident sees the
		// current gating stage, not the one from the first tick.
		a.GatingStage = r.gating(a.FromEpoch, epoch)
		if (a.Kind == AnomalyDrop && recent < a.Observed) ||
			(a.Kind != AnomalyDrop && recent > a.Observed) {
			a.Observed = recent
		}
		return
	}
	if kind == "" {
		return
	}
	// The window opened: its start is the first tick of the recent
	// window, both on the wall clock and the epoch frontier.
	start, _ := r.ticks.Get(r.n - recentWindow + 1)
	a := &Annotation{
		Series:    s.src.Name,
		Kind:      kind,
		Active:    true,
		StartMS:   start.ms,
		EndMS:     nowMS,
		Baseline:  baseline,
		Observed:  recent,
		FromEpoch: start.epoch,
		ToEpoch:   epoch,
	}
	a.GatingStage = r.gating(a.FromEpoch, epoch)
	s.open = a
	r.anns.Add(a)
}

// windowMean averages series i over the n ticks ending skip ticks before
// the newest, ignoring NaN gaps; ok is false when fewer than half the
// window is present (detection on mostly-gap windows would be noise).
func (r *Recorder) windowMean(i int, skip, n uint64) (mean float64, ok bool) {
	var sum float64
	var cnt int
	for seq := r.n - skip; seq > r.n-skip-n; seq-- {
		t, _ := r.ticks.Get(seq) // held: the windows are shorter than the ring
		if v := t.vals[i]; !math.IsNaN(v) {
			sum += v
			cnt++
		}
	}
	if cnt < int(n+1)/2 {
		return 0, false
	}
	return sum / float64(cnt), true
}

func (r *Recorder) gating(from, to uint64) string {
	if r.cfg.Gating == nil || from == 0 {
		return ""
	}
	return r.cfg.Gating(from, to)
}
