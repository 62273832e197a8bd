// Package tsdb is ALOHA-DB's in-process metrics flight recorder: a
// fixed-memory time-series store that samples a curated set of signals
// (commit/abort throughput, per-stage epoch quantiles, visibility lag,
// stall count, queue depths, WAL fsync age, runtime health) into
// per-series ring buffers on one shared tick. Where /metrics answers
// "what is the server doing right now", the recorder answers "what was
// it doing two minutes ago, and when did it change" — the question every
// post-hoc slowdown investigation starts with.
//
// Alongside the wall clock, every tick samples the committed-epoch
// frontier, so each ring slot maps to a window of the epoch protocol's
// own time base. That mapping is what lets an anomaly window (detect.go)
// be cross-linked to the epoch journal's gating attribution: "throughput
// dropped between epochs 410 and 460, and the journal blames ack-wait".
//
// The recorder follows the package's observability contract: a nil
// *Recorder is valid and inert, and the steady-state Sample path
// performs zero allocations (CI-guarded by BenchmarkRecorderSample).
package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"time"

	"alohadb/internal/metrics"
)

// Kind discriminates how a source's readings become ring samples.
type Kind uint8

const (
	// KindGauge stores Value() readings as-is.
	KindGauge Kind = iota
	// KindRate stores the per-second increase of a cumulative counter
	// between consecutive ticks.
	KindRate
	// KindQuantile stores a quantile of the observations recorded into
	// Hist since the previous tick — a windowed quantile, unlike the
	// lifetime quantiles on /metrics, so a two-second p99 excursion is
	// visible instead of being averaged into an hour of history.
	KindQuantile
)

// String names the kind in the /debug/timeseries document.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindRate:
		return "rate"
	case KindQuantile:
		return "quantile"
	default:
		return "unknown"
	}
}

// Source describes one recorded series.
type Source struct {
	// Name identifies the series (e.g. "commit_rate", "stage_seal_p99").
	Name string
	// Unit is a display hint ("txn/s", "seconds", "epochs", "bytes").
	Unit string
	// Kind selects the sampling scheme.
	Kind Kind
	// Value returns the gauge reading (KindGauge) or the cumulative
	// counter (KindRate). Must not allocate: it runs on every tick.
	Value func() float64
	// Hist is the cumulative histogram sampled by KindQuantile.
	Hist *metrics.Histogram
	// Q is the quantile for KindQuantile (e.g. 0.5, 0.99).
	Q float64
	// Scale multiplies every sampled value (1e-9 records a nanosecond
	// histogram in seconds). Zero means 1.
	Scale float64
	// Detect enables anomaly detection on this series; the zero value
	// disables it.
	Detect Detect
}

// Config configures one server's recorder.
type Config struct {
	// Server stamps the /debug/timeseries document.
	Server int
	// Interval is the sample cadence (default 500ms).
	Interval time.Duration
	// retention is the ring length in samples: 240, two minutes at the
	// default interval (tests shrink it). Memory is retention x 8B per
	// series plus the shared tick and epoch rings.
	retention int
	// Epoch, when set, samples the committed-epoch frontier alongside the
	// wall clock so every ring slot maps to an epoch window. Must not
	// allocate.
	Epoch func() uint64
	// Gating, when set, names the epoch journal's dominant gating stage
	// over an epoch range; annotations carry it as their local critical-
	// path attribution. Called only when an anomaly opens or closes.
	Gating func(from, to uint64) string
	// Detector tunes the shared anomaly-detection windows.
	Detector DetectorConfig
	// Sources are the recorded series.
	Sources []Source
}

type series struct {
	src  Source
	ring []float64 // parallel to Recorder.ticks; gaps are NaN

	// Rate state: previous cumulative reading.
	lastRaw  float64
	haveLast bool

	// Quantile state: previous/current cumulative snapshots plus a delta
	// scratch buffer, all reused across ticks.
	prev, cur, delta metrics.HistogramSnapshot

	open *Annotation // open anomaly window, nil when healthy
}

// Recorder samples its sources on a fixed cadence into ring buffers. A
// nil *Recorder is valid and inert.
type Recorder struct {
	cfg Config

	mu         sync.Mutex
	series     []*series
	ticks      []int64  // unix ms per tick, ring
	epochs     []uint64 // committed epoch per tick, ring
	n          int      // ticks taken; slot for tick t is t % retention
	lastTickMS int64
	anns       []*Annotation // bounded, newest last

	stop chan struct{}
	done chan struct{}
}

// New builds a stopped recorder; call Start to begin sampling, or drive
// Sample directly (tests, simulators). Returns nil (inert) when no
// sources are configured.
func New(cfg Config) *Recorder {
	if len(cfg.Sources) == 0 {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.retention <= 0 {
		cfg.retention = 240
	}
	cfg.Detector = cfg.Detector.withDefaults()
	r := &Recorder{
		cfg:    cfg,
		ticks:  make([]int64, cfg.retention),
		epochs: make([]uint64, cfg.retention),
	}
	for _, src := range cfg.Sources {
		if src.Scale == 0 {
			src.Scale = 1
		}
		r.series = append(r.series, &series{
			src:  src,
			ring: make([]float64, cfg.retention),
		})
	}
	return r
}

// Start begins the sampling loop. Nil-safe no-op.
func (r *Recorder) Start() {
	if r == nil || r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop()
}

// Stop halts the loop. Nil-safe, idempotent.
func (r *Recorder) Stop() {
	if r == nil || r.stop == nil {
		return
	}
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

func (r *Recorder) loop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	// Prime rate and quantile baselines so the second tick already
	// yields real deltas.
	r.Sample(time.Now())
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.Sample(now)
		}
	}
}

// Sample takes one tick: reads every source, advances the rings, and
// runs anomaly detection. Exported so simulators and tests can drive the
// recorder on their own clock. Nil-safe; zero allocations once the
// histogram scratch buffers are warm and no anomaly window opens.
func (r *Recorder) Sample(now time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var e uint64
	if r.cfg.Epoch != nil {
		e = r.cfg.Epoch()
	}
	ms := now.UnixMilli()
	dt := float64(ms-r.lastTickMS) / 1000
	if r.n == 0 || dt <= 0 {
		dt = r.cfg.Interval.Seconds()
	}
	idx := r.n % r.cfg.retention
	r.ticks[idx] = ms
	r.epochs[idx] = e
	for _, s := range r.series {
		s.ring[idx] = r.sampleOne(s, dt)
	}
	r.n++
	r.lastTickMS = ms
	for _, s := range r.series {
		r.detect(s, ms, e)
	}
}

func (r *Recorder) sampleOne(s *series, dt float64) float64 {
	var v float64
	switch s.src.Kind {
	case KindGauge:
		v = s.src.Value()
	case KindRate:
		raw := s.src.Value()
		if !s.haveLast {
			v = math.NaN()
		} else {
			v = (raw - s.lastRaw) / dt
			if v < 0 {
				v = 0 // counter reset
			}
		}
		s.lastRaw = raw
		s.haveLast = true
	case KindQuantile:
		s.src.Hist.SnapshotInto(&s.cur)
		if !s.haveLast {
			v = math.NaN()
		} else {
			deltaInto(&s.delta, s.cur, s.prev)
			if s.delta.Count == 0 {
				// No observations this window: a gap, not a zero.
				v = math.NaN()
			} else {
				v = float64(s.delta.Quantile(s.src.Q))
			}
		}
		s.prev, s.cur = s.cur, s.prev
		s.haveLast = true
	}
	return v * s.src.Scale
}

// deltaInto fills dst with cur minus prev (per-tick bucket deltas),
// reusing dst's Counts buffer. Mismatched lengths (first fill) yield an
// empty delta.
func deltaInto(dst *metrics.HistogramSnapshot, cur, prev metrics.HistogramSnapshot) {
	dst.Bounds = cur.Bounds
	if cap(dst.Counts) < len(cur.Counts) {
		dst.Counts = make([]uint64, len(cur.Counts))
	}
	dst.Counts = dst.Counts[:len(cur.Counts)]
	dst.Count = 0
	if len(prev.Counts) != len(cur.Counts) {
		for i := range dst.Counts {
			dst.Counts[i] = 0
		}
		dst.Sum = 0
		return
	}
	for i := range cur.Counts {
		d := cur.Counts[i] - prev.Counts[i]
		dst.Counts[i] = d
		dst.Count += d
	}
	dst.Sum = cur.Sum - prev.Sum
}

// Annotations returns a copy of the annotation ring, oldest first.
// Nil-safe.
func (r *Recorder) Annotations() []Annotation {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Annotation, len(r.anns))
	for i, a := range r.anns {
		out[i] = *a
	}
	return out
}

// Samples is a series' ring exported oldest-to-newest. Ticks where the
// series had no reading (first rate tick, empty quantile window) marshal
// as JSON nulls so consumers never see fabricated points.
type Samples []float64

// MarshalJSON renders NaN gaps as null.
func (s Samples) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, v := range s {
		if i > 0 {
			buf.WriteByte(',')
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			buf.WriteString("null")
			continue
		}
		b := strconv.AppendFloat(buf.AvailableBuffer(), v, 'g', -1, 64)
		buf.Write(b)
	}
	buf.WriteByte(']')
	return buf.Bytes(), nil
}

// UnmarshalJSON maps nulls back to NaN gaps.
func (s *Samples) UnmarshalJSON(b []byte) error {
	var raw []*float64
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	out := make(Samples, len(raw))
	for i, p := range raw {
		if p == nil {
			out[i] = math.NaN()
		} else {
			out[i] = *p
		}
	}
	*s = out
	return nil
}

// SeriesDoc is one series in the /debug/timeseries document.
type SeriesDoc struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Unit    string  `json:"unit,omitempty"`
	Samples Samples `json:"samples"`
}

// Doc is the /debug/timeseries document: the shared tick timeline (wall
// clock plus committed-epoch frontier), every series' ring, and the
// anomaly annotations.
type Doc struct {
	Server      int          `json:"server"`
	IntervalMS  int64        `json:"interval_ms"`
	Retention   int          `json:"retention"`
	Ticks       []int64      `json:"ticks_unix_ms"`
	Epochs      []uint64     `json:"epochs"`
	Series      []SeriesDoc  `json:"series"`
	Annotations []Annotation `json:"annotations,omitempty"`
}

// Doc assembles the document, samples oldest first. Nil-safe (empty).
func (r *Recorder) Doc() Doc {
	if r == nil {
		return Doc{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	doc := Doc{
		Server:     r.cfg.Server,
		IntervalMS: r.cfg.Interval.Milliseconds(),
		Retention:  r.cfg.retention,
	}
	valid := min(r.n, r.cfg.retention)
	doc.Ticks = make([]int64, valid)
	doc.Epochs = make([]uint64, valid)
	for i := 0; i < valid; i++ {
		slot := (r.n - valid + i) % r.cfg.retention
		doc.Ticks[i] = r.ticks[slot]
		doc.Epochs[i] = r.epochs[slot]
	}
	doc.Series = make([]SeriesDoc, len(r.series))
	for si, s := range r.series {
		sd := SeriesDoc{Name: s.src.Name, Kind: s.src.Kind.String(), Unit: s.src.Unit}
		sd.Samples = make(Samples, valid)
		for i := 0; i < valid; i++ {
			sd.Samples[i] = s.ring[(r.n-valid+i)%r.cfg.retention]
		}
		doc.Series[si] = sd
	}
	if len(r.anns) > 0 {
		doc.Annotations = make([]Annotation, len(r.anns))
		for i, a := range r.anns {
			doc.Annotations[i] = *a
		}
	}
	return doc
}
