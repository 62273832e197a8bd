// Package tsdb is ALOHA-DB's in-process metrics flight recorder: a
// fixed-memory time-series store that samples a curated set of signals
// (commit/abort throughput, per-stage epoch quantiles, visibility lag,
// stall count, queue depths, WAL fsync age, runtime health) on one shared
// tick into one ring (internal/ring) of tick rows: the wall clock, the
// committed-epoch frontier and one value per series. Where /metrics
// answers "what is the server doing right now", the recorder answers
// "what was it doing two minutes ago, and when did it change" — the
// question every post-hoc slowdown investigation starts with.
//
// Because every row carries the committed-epoch frontier, each tick maps
// to a window of the epoch protocol's own time base. That mapping is what
// lets an anomaly window (detect.go) be cross-linked to the epoch
// journal's gating attribution: "throughput dropped between epochs 410
// and 460, and the journal blames ack-wait". Retention, the detection
// windows and the annotation ring are constants.
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
	"alohadb/internal/ring"
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
	// Epoch, when set, samples the committed-epoch frontier alongside the
	// wall clock so every ring slot maps to an epoch window. Must not
	// allocate.
	Epoch func() uint64
	// Gating, when set, names the epoch journal's dominant gating stage
	// over an epoch range; annotations carry it as their local critical-
	// path attribution. Called only when an anomaly opens or closes.
	Gating func(from, to uint64) string
	// Sources are the recorded series.
	Sources []Source
}

// retention is the ring length in ticks: two minutes at the default
// interval, for 8 B per series and 16 B of stamps per tick.
const retention = 240

// tick is one ring row: the wall clock, the committed-epoch frontier, and
// each series' value (NaN for a gap), in Config.Sources order.
type tick struct {
	ms    int64
	epoch uint64
	vals  []float64
}

type series struct {
	src Source

	// Rate state: previous cumulative reading.
	lastRaw  float64
	haveLast bool

	// Quantile state: previous/current cumulative snapshots plus a delta
	// scratch buffer, all reused across ticks.
	prev, cur, delta metrics.HistogramSnapshot

	open *Annotation // open anomaly window, nil when healthy
}

// Recorder samples its sources on a fixed cadence into a ring of ticks. A
// nil *Recorder is valid and inert.
type Recorder struct {
	cfg Config

	mu         sync.Mutex
	series     []*series
	ticks      *ring.Ring[tick]
	n          uint64 // ticks taken: the newest tick's seq
	lastTickMS int64
	anns       *ring.Ring[*Annotation]

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
	r := &Recorder{
		cfg: cfg,
		// Each slot's row of values is made once, here, and reused.
		ticks: ring.New(retention, func(t *tick) {
			if t.vals == nil {
				t.vals = make([]float64, len(cfg.Sources))
			}
		}),
		anns: ring.New[*Annotation](maxAnnotations, nil),
	}
	for _, src := range cfg.Sources {
		if src.Scale == 0 {
			src.Scale = 1
		}
		r.series = append(r.series, &series{src: src})
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

// Sample takes one tick: reads every source into the ring's next row, and
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
	r.n++
	slot := r.ticks.Lock(r.n)
	t := &slot.Val
	t.ms, t.epoch = ms, e
	for i, s := range r.series {
		t.vals[i] = r.sampleOne(s, dt)
	}
	slot.Unlock()
	r.lastTickMS = ms
	for i, s := range r.series {
		r.detect(i, s, ms, e)
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

// Annotations returns the annotation ring, oldest first. Nil-safe.
func (r *Recorder) Annotations() []Annotation { return r.Doc().Annotations }

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
	ticks, _ := r.ticks.Snapshot()
	anns, _ := r.anns.Snapshot()
	doc := Doc{
		Server:      r.cfg.Server,
		IntervalMS:  r.cfg.Interval.Milliseconds(),
		Retention:   retention,
		Ticks:       make([]int64, len(ticks)),
		Epochs:      make([]uint64, len(ticks)),
		Series:      make([]SeriesDoc, len(r.series)),
		Annotations: make([]Annotation, len(anns)),
	}
	for i, a := range anns {
		doc.Annotations[i] = *a // open windows update theirs under r.mu
	}
	for i, t := range ticks {
		doc.Ticks[i], doc.Epochs[i] = t.ms, t.epoch
	}
	for si, s := range r.series {
		sd := SeriesDoc{Name: s.src.Name, Kind: s.src.Kind.String(), Unit: s.src.Unit}
		sd.Samples = make(Samples, len(ticks))
		for i, t := range ticks {
			sd.Samples[i] = t.vals[si]
		}
		doc.Series[si] = sd
	}
	return doc
}
