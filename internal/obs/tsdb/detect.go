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

// DetectorConfig tunes the shared detection windows.
type DetectorConfig struct {
	// Recent is the window whose mean is tested (default 3 samples, so a
	// single noisy tick cannot open a window).
	Recent int
	// Baseline is the trailing window preceding Recent (default 24).
	Baseline int
	// MinSamples suppresses detection until this many ticks exist
	// (cold-start suppression; default Recent+Baseline, i.e. a full pair
	// of windows).
	MinSamples int
	// MaxAnnotations bounds the annotation ring (default 64).
	MaxAnnotations int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Recent <= 0 {
		c.Recent = 3
	}
	if c.Baseline <= 0 {
		c.Baseline = 24
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.Recent + c.Baseline
	}
	if c.MaxAnnotations <= 0 {
		c.MaxAnnotations = 64
	}
	return c
}

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

// detect runs the level-shift test for one series after a tick. Called
// with r.mu held, after r.n was advanced.
func (r *Recorder) detect(s *series, nowMS int64, epoch uint64) {
	d := s.src.Detect
	if !d.enabled() || r.n < r.cfg.Detector.MinSamples {
		return
	}
	dc := r.cfg.Detector
	recent, rok := r.windowMean(s, 0, dc.Recent)
	baseline, bok := r.windowMean(s, dc.Recent, dc.Baseline)
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
	startSlot := (r.n - dc.Recent) % r.cfg.retention
	a := &Annotation{
		Series:    s.src.Name,
		Kind:      kind,
		Active:    true,
		StartMS:   r.ticks[startSlot],
		EndMS:     nowMS,
		Baseline:  baseline,
		Observed:  recent,
		FromEpoch: r.epochs[startSlot],
		ToEpoch:   epoch,
	}
	a.GatingStage = r.gating(a.FromEpoch, epoch)
	s.open = a
	r.anns = append(r.anns, a)
	if len(r.anns) > r.cfg.Detector.MaxAnnotations {
		r.anns = r.anns[len(r.anns)-r.cfg.Detector.MaxAnnotations:]
	}
}

// windowMean averages the n ring samples ending `skip` ticks before the
// newest, ignoring NaN gaps; ok is false when fewer than half the window
// is present (detection on mostly-gap windows would be noise).
func (r *Recorder) windowMean(s *series, skip, n int) (mean float64, ok bool) {
	var sum float64
	var cnt int
	oldest := r.n - min(r.n, r.cfg.retention)
	for t := r.n - 1 - skip; t >= r.n-skip-n; t-- {
		if t < oldest {
			break
		}
		v := s.ring[t%r.cfg.retention]
		if math.IsNaN(v) {
			continue
		}
		sum += v
		cnt++
	}
	if cnt < (n+1)/2 {
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
