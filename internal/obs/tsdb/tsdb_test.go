package tsdb

import (
	"encoding/json"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/metrics"
)

// drive advances the recorder n ticks at the configured interval.
func drive(r *Recorder, start time.Time, n int) time.Time {
	for i := 0; i < n; i++ {
		r.Sample(start)
		start = start.Add(r.cfg.Interval)
	}
	return start
}

func TestNilRecorderInert(t *testing.T) {
	var r *Recorder
	r.Start()
	r.Sample(time.Now())
	r.Stop()
	if len(r.Doc().Ticks) != 0 || r.Annotations() != nil {
		t.Fatal("nil recorder not inert")
	}
	if doc := r.Doc(); len(doc.Series) != 0 {
		t.Fatal("nil recorder produced series")
	}
	if New(Config{}) != nil {
		t.Fatal("sourceless recorder should be nil")
	}
}

func TestRecorderRingsAndDoc(t *testing.T) {
	var ctr atomic.Uint64
	var epoch atomic.Uint64
	r := New(Config{
		Server:   2,
		Interval: 100 * time.Millisecond,
		Epoch:    epoch.Load,
		Sources: []Source{
			{Name: "commit_rate", Kind: KindRate, Unit: "txn/s",
				Value: func() float64 { return float64(ctr.Load()) }},
			{Name: "lag", Kind: KindGauge, Unit: "epochs",
				Value: func() float64 { return 2 }},
		},
	})
	now := time.Unix(1000, 0)
	for i := 0; i < retention+4; i++ {
		ctr.Add(50) // 50 per 100ms tick = 500/s
		epoch.Add(3)
		r.Sample(now)
		now = now.Add(100 * time.Millisecond)
	}
	if got := len(r.Doc().Ticks); got != retention {
		t.Fatalf("Len = %d, want retention %d", got, retention)
	}
	doc := r.Doc()
	if doc.Server != 2 || doc.IntervalMS != 100 || doc.Retention != retention {
		t.Fatalf("doc header = %+v", doc)
	}
	if len(doc.Ticks) != retention || len(doc.Epochs) != retention || len(doc.Series) != 2 {
		t.Fatalf("doc shape: ticks=%d epochs=%d series=%d", len(doc.Ticks), len(doc.Epochs), len(doc.Series))
	}
	for i := 1; i < len(doc.Ticks); i++ {
		if doc.Ticks[i] <= doc.Ticks[i-1] || doc.Epochs[i] <= doc.Epochs[i-1] {
			t.Fatalf("timeline not ascending at %d: %v %v", i, doc.Ticks, doc.Epochs)
		}
	}
	rate := doc.Series[0]
	if rate.Kind != "rate" {
		t.Fatalf("kind = %q", rate.Kind)
	}
	last := rate.Samples[len(rate.Samples)-1]
	if math.Abs(last-500) > 1 {
		t.Fatalf("commit_rate sample = %v, want ~500", last)
	}
	if doc.Series[1].Samples[0] != 2 {
		t.Fatalf("gauge sample = %v", doc.Series[1].Samples[0])
	}
}

func TestQuantileWindowedNotLifetime(t *testing.T) {
	h := metrics.NewHistogram(metrics.LatencyBounds())
	r := New(Config{
		Interval: 100 * time.Millisecond,
		Sources: []Source{
			{Name: "p99", Kind: KindQuantile, Hist: h, Q: 0.99, Scale: 1e-9, Unit: "seconds"},
		},
	})
	now := time.Unix(1000, 0)
	// A long history of 1ms observations...
	for i := 0; i < 10; i++ {
		for j := 0; j < 100; j++ {
			h.ObserveDuration(time.Millisecond)
		}
		r.Sample(now)
		now = now.Add(100 * time.Millisecond)
	}
	// ...then one window of 60ms observations.
	for j := 0; j < 100; j++ {
		h.ObserveDuration(60 * time.Millisecond)
	}
	r.Sample(now)
	doc := r.Doc()
	s := doc.Series[0].Samples
	if got := s[len(s)-1]; got < 0.030 {
		t.Fatalf("windowed p99 = %vs, want >= 30ms (lifetime quantile would dilute the burst)", got)
	}
	// An empty window is a gap, not a zero.
	r.Sample(now.Add(100 * time.Millisecond))
	s = r.Doc().Series[0].Samples
	if !math.IsNaN(s[len(s)-1]) {
		t.Fatalf("empty quantile window = %v, want NaN gap", s[len(s)-1])
	}
}

func TestDetectorLevelShiftDetected(t *testing.T) {
	var ctr atomic.Uint64
	var epoch atomic.Uint64
	gateFrom, gateTo := uint64(0), uint64(0)
	r := New(Config{
		Interval: 100 * time.Millisecond,
		Epoch:    epoch.Load,
		Gating: func(from, to uint64) string {
			gateFrom, gateTo = from, to
			return "ack-wait"
		},
		Sources: []Source{
			{Name: "commit_rate", Kind: KindRate, Detect: Detect{DropFrac: 0.25, MinBaseline: 10},
				Value: func() float64 { return float64(ctr.Load()) }},
		},
	})
	now := time.Unix(1000, 0)
	for i := 0; i < recentWindow+baselineWindow; i++ { // healthy baseline: 1000/s
		ctr.Add(100)
		epoch.Add(5)
		r.Sample(now)
		now = now.Add(100 * time.Millisecond)
	}
	if got := len(r.Annotations()); got != 0 {
		t.Fatalf("anomalies on steady series = %d", got)
	}
	for i := 0; i < 6; i++ { // fault: 100/s, an 90% drop
		ctr.Add(10)
		epoch.Add(5)
		r.Sample(now)
		now = now.Add(100 * time.Millisecond)
	}
	anns := r.Annotations()
	if len(anns) != 1 {
		t.Fatalf("annotations = %+v, want exactly one drop window", anns)
	}
	a := anns[0]
	if a.Kind != AnomalyDrop || !a.Active || a.Series != "commit_rate" {
		t.Fatalf("annotation = %+v", a)
	}
	if a.Observed >= a.Baseline*(1-0.25) {
		t.Fatalf("observed %v vs baseline %v not a 25%% drop", a.Observed, a.Baseline)
	}
	if a.FromEpoch == 0 || a.ToEpoch <= a.FromEpoch {
		t.Fatalf("epoch window [%d,%d] not mapped", a.FromEpoch, a.ToEpoch)
	}
	if a.GatingStage != "ack-wait" || gateFrom != a.FromEpoch || gateTo != a.ToEpoch {
		t.Fatalf("gating cross-link: stage=%q called with [%d,%d], annotation [%d,%d]",
			a.GatingStage, gateFrom, gateTo, a.FromEpoch, a.ToEpoch)
	}
	// Recovery closes the window.
	for i := 0; i < 16; i++ {
		ctr.Add(100)
		epoch.Add(5)
		r.Sample(now)
		now = now.Add(100 * time.Millisecond)
	}
	anns = r.Annotations()
	if len(anns) != 1 || anns[0].Active {
		t.Fatalf("window did not close on recovery: %+v", anns)
	}
	if anns[0].EndMS <= anns[0].StartMS {
		t.Fatalf("closed window has no span: %+v", anns[0])
	}
}

func TestDetectorNoiseNotFlagged(t *testing.T) {
	var ctr atomic.Uint64
	i := 0
	r := New(Config{
		Interval: 100 * time.Millisecond,
		Sources: []Source{
			{Name: "commit_rate", Kind: KindRate, Detect: Detect{DropFrac: 0.25, MinBaseline: 10},
				Value: func() float64 { return float64(ctr.Load()) }},
		},
	})
	now := time.Unix(1000, 0)
	for n := 0; n < 60; n++ {
		// +-10% wiggle around 100/tick stays inside the 25% tolerance.
		ctr.Add(uint64(100 + 10*((i%3)-1)))
		i++
		r.Sample(now)
		now = now.Add(100 * time.Millisecond)
	}
	if got := len(r.Annotations()); got != 0 {
		t.Fatalf("noise flagged: %d annotations %+v", got, r.Annotations())
	}
}

func TestDetectorColdStartSuppressed(t *testing.T) {
	var v atomic.Uint64
	v.Store(100)
	r := New(Config{
		Interval: 100 * time.Millisecond,
		Sources: []Source{
			// A gauge that collapses immediately: without cold-start
			// suppression the first few ticks would look like a drop.
			{Name: "g", Kind: KindGauge, Detect: Detect{DropFrac: 0.25, MinBaseline: 1},
				Value: func() float64 { return float64(v.Load()) }},
		},
	})
	now := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		r.Sample(now)
		now = now.Add(100 * time.Millisecond)
		v.Store(v.Load() / 2)
	}
	if got := len(r.Annotations()); got != 0 {
		t.Fatalf("cold start flagged: %+v", r.Annotations())
	}
}

// TestDetectorRiseAndOnset checks the rise test on a series with a
// baseline and on one idle at zero that turns nonzero (an onset): the
// MinBaseline floor is what the idle one is measured against.
func TestDetectorRiseAndOnset(t *testing.T) {
	lat := atomic.Uint64{}
	lat.Store(1) // ms
	var errs atomic.Uint64
	r := New(Config{
		Interval: 100 * time.Millisecond,
		Sources: []Source{
			{Name: "p99", Kind: KindGauge, Detect: Detect{RiseFactor: 2, MinBaseline: 0.5},
				Value: func() float64 { return float64(lat.Load()) }},
			{Name: "errors", Kind: KindRate, Detect: Detect{RiseFactor: 2, MinBaseline: 0.5},
				Value: func() float64 { return float64(errs.Load()) }},
		},
	})
	now := drive(r, time.Unix(1000, 0), recentWindow+baselineWindow)
	lat.Store(5) // x5 the baseline
	errs.Add(1)  // 10/s for one tick after a zero baseline
	now = drive(r, now, 4)
	kinds := map[string]string{}
	for _, a := range r.Annotations() {
		kinds[a.Series] = a.Kind
	}
	if kinds["p99"] != AnomalyRise {
		t.Fatalf("rise not flagged: %+v", r.Annotations())
	}
	if kinds["errors"] != AnomalyRise {
		t.Fatalf("onset from a zero baseline not flagged: %+v", r.Annotations())
	}
}

// TestAnnotationRingBound checks the annotation ring keeps the newest
// maxAnnotations windows, oldest first, and that an open window keeps
// updating until it closes.
func TestAnnotationRingBound(t *testing.T) {
	// One-tick blips on an idle gauge, each once the previous one has left
	// the baseline window: every blip opens a rise window, which closes
	// once the blip leaves the recent window.
	const period = recentWindow + baselineWindow + 1
	const blips = maxAnnotations + 5
	var v, epoch atomic.Uint64
	r := New(Config{
		Interval: 100 * time.Millisecond,
		Epoch:    epoch.Load,
		Sources: []Source{{Name: "blips", Kind: KindGauge, Detect: Detect{RiseFactor: 2, MinBaseline: 0.5},
			Value: func() float64 { return float64(v.Load()) }}},
	})
	now := time.Unix(1000, 0)
	for tick := uint64(1); tick <= blips*period+recentWindow; tick++ {
		v.Store(0)
		if tick%period == 0 {
			v.Store(10)
		}
		epoch.Store(tick)
		r.Sample(now)
		if tick%period == 1 && tick > period {
			anns := r.Annotations()
			if a := anns[len(anns)-1]; !a.Active || a.ToEpoch != tick || a.EndMS != now.UnixMilli() {
				t.Fatalf("tick %d: open window not updated: %+v", tick, a)
			}
		}
		now = now.Add(100 * time.Millisecond)
	}
	anns := r.Annotations()
	if len(anns) != maxAnnotations {
		t.Fatalf("annotation ring holds %d, want %d", len(anns), maxAnnotations)
	}
	for i, a := range anns {
		blip := uint64(blips-maxAnnotations+1+i) * period
		if a.Active || a.Kind != AnomalyRise || a.FromEpoch != blip-recentWindow+1 || a.ToEpoch != blip+recentWindow {
			t.Fatalf("annotation %d = %+v, want the closed window of the blip at epoch %d", i, a, blip)
		}
	}
}

func TestSamplesJSONGaps(t *testing.T) {
	in := Samples{1.5, math.NaN(), 3}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[1.5,null,3]" {
		t.Fatalf("marshal = %s", b)
	}
	var out Samples
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 1.5 || !math.IsNaN(out[1]) || out[2] != 3 {
		t.Fatalf("round trip = %v", out)
	}
}

func TestRecorderStartStop(t *testing.T) {
	var ctr atomic.Uint64
	r := New(Config{
		Interval: time.Millisecond,
		Sources: []Source{
			{Name: "c", Kind: KindRate, Value: func() float64 { return float64(ctr.Add(1)) }},
		},
	})
	r.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(r.Doc().Ticks) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
	if len(r.Doc().Ticks) < 3 {
		t.Fatalf("sampling loop took no samples: %d", len(r.Doc().Ticks))
	}
}

// BenchmarkRecorderSample is the CI allocation guard for the always-on
// sample path: gauge, rate, and windowed-quantile sources plus detection
// and the stall rule must not allocate at steady state.
func BenchmarkRecorderSample(b *testing.B) {
	var ctr atomic.Uint64
	var epoch atomic.Uint64
	h := metrics.NewHistogram(metrics.LatencyBounds())
	for i := 0; i < 1000; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	r := New(Config{
		Interval:       100 * time.Millisecond,
		Epoch:          epoch.Load,
		StallThreshold: time.Second,
		Sources: []Source{
			{Name: "commit_rate", Kind: KindRate, Detect: Detect{DropFrac: 0.25, MinBaseline: 10},
				Value: func() float64 { return float64(ctr.Load()) }},
			{Name: "lag", Kind: KindGauge, Detect: Detect{RiseFactor: 3, MinBaseline: 3},
				Value: func() float64 { return 1 }},
			{Name: "p99", Kind: KindQuantile, Hist: h, Q: 0.99, Scale: 1e-9,
				Detect: Detect{RiseFactor: 2.5, MinBaseline: 0.002}},
		},
	})
	now := time.Unix(1000, 0)
	for i := 0; i < 64; i++ { // warm the scratch buffers and windows
		ctr.Add(100)
		epoch.Add(1)
		h.ObserveDuration(time.Millisecond)
		r.Sample(now)
		now = now.Add(100 * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr.Add(100)
		epoch.Add(1)
		h.ObserveDuration(time.Millisecond)
		r.Sample(now)
		now = now.Add(100 * time.Millisecond)
	}
}
