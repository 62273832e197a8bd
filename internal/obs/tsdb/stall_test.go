package tsdb

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/obs"
)

// stallRecorder is a recorder with one idle gauge and the stall rule on
// the given frontier; its tick is a quarter of the threshold.
func stallRecorder(server int, threshold time.Duration, epoch *atomic.Uint64,
	capture func(context.Context) *obs.StallSnapshot, extra ...Source) *Recorder {
	return New(Config{
		Server:         server,
		Epoch:          epoch.Load,
		StallThreshold: threshold,
		StallCapture:   capture,
		Sources: append([]Source{{Name: "g", Kind: KindGauge,
			Value: func() float64 { return 1 }}}, extra...),
	})
}

// stallAnnotations returns the retained stall episodes, oldest first.
func stallAnnotations(r *Recorder) []Annotation {
	var out []Annotation
	for _, a := range r.Annotations() {
		if a.Kind == AnomalyStall {
			out = append(out, a)
		}
	}
	return out
}

// TestStallDetectAndClear drives a frontier through a stall and its
// recovery on a synthetic clock and checks the episode's one capture, its
// annotation (open, then closed), Health and the gauges.
func TestStallDetectAndClear(t *testing.T) {
	const threshold = 40 * time.Millisecond
	var epoch atomic.Uint64
	var captured atomic.Int32
	r := stallRecorder(7, threshold, &epoch, func(ctx context.Context) *obs.StallSnapshot {
		captured.Add(1)
		if _, ok := ctx.Deadline(); !ok {
			t.Error("capture context has no deadline")
		}
		return &obs.StallSnapshot{CommittedEpoch: 4, CurrentEpoch: 5, UnreachablePeers: []int{2}}
	})
	tick := r.cfg.Interval
	if tick != threshold/4 {
		t.Fatalf("tick = %v, want a quarter of the threshold", tick)
	}

	// Healthy while the frontier advances.
	now := time.Unix(1000, 0)
	for i := 0; i < 8; i++ {
		epoch.Add(1)
		r.Sample(now)
		now = now.Add(tick)
	}
	if r.StallActive() || len(stallAnnotations(r)) != 0 {
		t.Fatal("stall with an advancing frontier")
	}

	// Frozen: the episode opens on the tick the age reaches the threshold.
	stopped := now.Add(-tick)
	for now.Sub(stopped) < threshold {
		r.Sample(now)
		if r.StallActive() {
			t.Fatalf("stall declared at age %v, below the threshold", now.Sub(stopped))
		}
		now = now.Add(tick)
	}
	r.Sample(now)
	detected := now
	if !r.StallActive() {
		t.Fatal("stall never detected")
	}
	if ok, reason := r.Health(); ok || !strings.Contains(reason, "no epoch progress") {
		t.Fatalf("Health = %v %q during stall", ok, reason)
	}
	anns := stallAnnotations(r)
	if len(anns) != 1 || !anns[0].Active || anns[0].Stall == nil {
		t.Fatalf("open episode not published with its capture: %+v", anns)
	}
	for i := 0; i < 6; i++ { // stay stalled across more ticks
		now = now.Add(tick)
		r.Sample(now)
	}
	if got := captured.Load(); got != 1 {
		t.Fatalf("captured %d snapshots for one episode", got)
	}
	st := r.StallStatus()
	if !st.Active || st.StallsTotal != 1 || len(st.Snapshots) != 1 || st.ProgressAge != now.Sub(stopped) {
		t.Fatalf("status = %+v", st)
	}
	s := st.Snapshots[0]
	if s.Server != 7 || s.CommittedEpoch != 4 || s.CurrentEpoch != 5 || len(s.UnreachablePeers) != 1 || s.UnreachablePeers[0] != 2 {
		t.Fatalf("snapshot fields: %+v", s)
	}
	if s.Age < threshold || s.Threshold != threshold || !s.DetectedAt.Equal(detected) {
		t.Fatalf("snapshot age/threshold/detected: %v/%v/%v", s.Age, s.Threshold, s.DetectedAt)
	}
	if s.Goroutines == 0 || !strings.Contains(s.GoroutineProfile, "goroutine") {
		t.Fatal("goroutine profile missing")
	}
	fams := r.MetricFamilies()
	if len(fams) != 3 || fams[0].Name != FamStallActive || fams[0].Total() != 1 || fams[1].Total() != 1 {
		t.Fatalf("gauges during stall: %+v", fams)
	}

	// The frontier moves: the episode clears on that tick.
	now = now.Add(tick)
	epoch.Add(1)
	r.Sample(now)
	if r.StallActive() {
		t.Fatal("stall never cleared")
	}
	if ok, _ := r.Health(); !ok {
		t.Fatal("unhealthy after clear")
	}
	// Detected, then cleared: the annotation opened where the frontier
	// stopped, holds the capture taken at detection, and closed on the
	// tick the frontier moved, at the new epoch.
	anns = stallAnnotations(r)
	if len(anns) != 1 {
		t.Fatalf("stall annotations = %+v", anns)
	}
	a := anns[0]
	if a.Active || a.Series != stallSeries || a.StartMS != stopped.UnixMilli() || a.EndMS != now.UnixMilli() ||
		a.FromEpoch != 8 || a.ToEpoch != 9 || a.Stall != s {
		t.Fatalf("closed episode = %+v", a)
	}
	if a.StartMS >= s.DetectedAt.UnixMilli() || s.DetectedAt.UnixMilli() >= a.EndMS {
		t.Fatalf("detection at %v outside the episode [%d, %d]", s.DetectedAt, a.StartMS, a.EndMS)
	}
	if a.Baseline != threshold.Seconds() || a.Observed != now.Sub(stopped).Seconds() {
		t.Fatalf("episode threshold/duration = %v/%v", a.Baseline, a.Observed)
	}
	if got := captured.Load(); got != 1 {
		t.Fatalf("captured %d snapshots after the clear", got)
	}
}

// TestStallRingBound drives more episodes than the annotation ring holds
// and checks it keeps the newest, oldest first, each detected and cleared
// in turn. Then an open episode outlives its annotation in the ring and
// its capture still comes last in the status.
func TestStallRingBound(t *testing.T) {
	const threshold = 4 * time.Millisecond
	const episodes = maxAnnotations + 5
	var epoch, blip atomic.Uint64
	r := stallRecorder(0, threshold, &epoch, nil, Source{Name: "blips", Kind: KindGauge,
		Detect: Detect{RiseFactor: 2, MinBaseline: 0.5}, Value: func() float64 { return float64(blip.Load()) }})
	tick := r.cfg.Interval
	now := time.Unix(1000, 0)
	r.Sample(now) // epoch 0 at the start of the clock
	var lastDetected time.Time
	for i := 0; i < episodes; i++ {
		for j := 0; j < 4; j++ {
			now = now.Add(tick)
			r.Sample(now)
		}
		if !r.StallActive() {
			t.Fatalf("episode %d never detected", i)
		}
		lastDetected = now
		epoch.Add(1)
		now = now.Add(tick)
		r.Sample(now)
		if r.StallActive() {
			t.Fatalf("episode %d never cleared", i)
		}
	}
	anns := stallAnnotations(r)
	if len(anns) != maxAnnotations {
		t.Fatalf("ring holds %d episodes, want %d", len(anns), maxAnnotations)
	}
	for i, a := range anns {
		e := uint64(episodes - maxAnnotations + i)
		if a.Active || a.FromEpoch != e || a.ToEpoch != e+1 || a.Stall == nil || a.StartMS >= a.EndMS {
			t.Fatalf("episode %d = %+v, want the closed episode at epoch %d", i, a, e)
		}
		if i > 0 && a.StartMS < anns[i-1].EndMS {
			t.Fatalf("episodes %d and %d out of order", i-1, i)
		}
	}
	st := r.StallStatus()
	if st.StallsTotal != episodes || len(st.Snapshots) != maxAnnotations {
		t.Fatalf("stalls_total = %d, snapshots = %d, want %d and %d", st.StallsTotal, len(st.Snapshots), episodes, maxAnnotations)
	}
	if last := st.Snapshots[maxAnnotations-1].DetectedAt; !last.Equal(lastDetected) {
		t.Fatalf("newest snapshot detected at %v, want the last episode's %v", last, lastDetected)
	}

	// One more episode stays open while a blip on the other series opens
	// and closes maxAnnotations rise windows, pushing it out of the ring.
	for !r.StallActive() {
		now = now.Add(tick)
		r.Sample(now)
	}
	open := r.StallStatus().Snapshots[maxAnnotations-1]
	const period = recentWindow + baselineWindow + 1
	for i := 1; i <= maxAnnotations*period+recentWindow; i++ {
		blip.Store(0)
		if i%period == 0 {
			blip.Store(10)
		}
		now = now.Add(tick)
		r.Sample(now)
	}
	if n := len(stallAnnotations(r)); n != 0 || !r.StallActive() {
		t.Fatalf("%d stall annotations left in the ring, active %v", n, r.StallActive())
	}
	st = r.StallStatus()
	if len(st.Snapshots) != 1 || st.Snapshots[0] != open || st.StallsTotal != episodes+1 {
		t.Fatalf("open episode's capture not last: %d snapshots, total %d", len(st.Snapshots), st.StallsTotal)
	}
}

// TestStallCaptureBytesBound checks what stall captures can pin: each
// goroutine profile at most profileBytes, and at most maxAnnotations
// captures retained, over more episodes than the ring holds, with enough
// goroutines parked that a whole profile would run longer.
func TestStallCaptureBytesBound(t *testing.T) {
	park := make(chan struct{})
	defer close(park)
	for i := 0; i < 200; i++ {
		go func() { <-park }()
	}
	const threshold = 4 * time.Millisecond
	var epoch atomic.Uint64
	r := stallRecorder(0, threshold, &epoch, nil)
	now := time.Unix(1000, 0)
	for i := 0; i < maxAnnotations+5; i++ {
		for !r.StallActive() {
			now = now.Add(r.cfg.Interval)
			r.Sample(now)
		}
		epoch.Add(1)
		now = now.Add(r.cfg.Interval)
		r.Sample(now)
	}
	snaps := r.StallStatus().Snapshots
	if len(snaps) != maxAnnotations {
		t.Fatalf("%d captures retained, want %d", len(snaps), maxAnnotations)
	}
	total := 0
	for i, s := range snaps {
		if len(s.GoroutineProfile) != profileBytes {
			t.Fatalf("capture %d carries %d profile bytes, want the %d cap", i, len(s.GoroutineProfile), profileBytes)
		}
		total += len(s.GoroutineProfile)
	}
	if limit := maxAnnotations * profileBytes; total > limit || limit != 1<<20 {
		t.Fatalf("captures pin %d profile bytes, bound %d (1 MiB)", total, limit)
	}
}

// TestStallConcurrent runs the rule on the recorder's own goroutine and on
// a second one calling Sample, while the frontier starts and stops and a
// reader polls every view: run it under -race. An open episode is never
// visible without its capture.
func TestStallConcurrent(t *testing.T) {
	var epoch atomic.Uint64
	r := stallRecorder(0, 4*time.Millisecond, &epoch, nil)
	r.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(step func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				step(i)
			}
		}()
	}
	loop(func(int) { r.Sample(time.Now()); time.Sleep(time.Millisecond) })
	loop(func(i int) {
		if i%20 < 10 { // 10 ms moving, 10 ms frozen
			epoch.Add(1)
		}
		time.Sleep(time.Millisecond)
	})
	loop(func(int) {
		r.StallActive()
		r.Health()
		r.MetricFamilies()
		r.Doc()
		if st := r.StallStatus(); st.Active && len(st.Snapshots) == 0 {
			t.Error("open episode without its capture")
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for r.StallStatus().StallsTotal < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	r.Stop()
	if n := r.StallStatus().StallsTotal; n < 3 {
		t.Fatalf("%d episodes in 5s of a frontier frozen half the time", n)
	}
	for _, a := range stallAnnotations(r) {
		if a.Stall == nil || a.EndMS < a.StartMS {
			t.Fatalf("episode %+v", a)
		}
	}
}

// TestStallStatusJSON pins the /debug/stall JSON document shape, and that
// the timeseries document carries the episode without its capture.
func TestStallStatusJSON(t *testing.T) {
	var epoch atomic.Uint64
	r := stallRecorder(3, 10*time.Millisecond, &epoch, nil)
	now := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		r.Sample(now)
		now = now.Add(r.cfg.Interval)
	}
	b, err := json.Marshal(r.StallStatus())
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b)
	}
	for _, k := range []string{"active", "stalls_total", "progress_age_ns", "threshold_ns", "snapshots"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("/debug/stall lacks %q: %s", k, b)
		}
	}
	var st obs.StallStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Active || st.StallsTotal != 1 || len(st.Snapshots) != 1 || st.Threshold != 10*time.Millisecond {
		t.Fatalf("status = %+v", st)
	}
	if st.Snapshots[0].Server != 3 {
		t.Fatalf("snapshot server = %d", st.Snapshots[0].Server)
	}
	doc, err := json.Marshal(r.Doc())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), `"kind":"stall"`) || strings.Contains(string(doc), "goroutine_profile") {
		t.Fatalf("timeseries document: %s", doc)
	}
}

// TestStallNil checks the rule is inert and free where it is off: a nil
// recorder, one without a threshold, and one without a frontier.
func TestStallNil(t *testing.T) {
	var r *Recorder
	if r.StallActive() || r.StallStatus() != nil || r.MetricFamilies() != nil {
		t.Fatal("nil recorder reports a stall rule")
	}
	if ok, _ := r.Health(); !ok {
		t.Fatal("nil recorder unhealthy")
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.StallActive()
		_, _ = r.Health()
	}); n != 0 {
		t.Fatalf("nil recorder allocates %v/op", n)
	}
	src := []Source{{Name: "g", Kind: KindGauge, Value: func() float64 { return 1 }}}
	var epoch atomic.Uint64
	for name, cfg := range map[string]Config{
		"no threshold": {Epoch: epoch.Load, Sources: src},
		"no frontier":  {StallThreshold: time.Millisecond, Sources: src},
	} {
		r := New(cfg)
		now := time.Unix(1000, 0)
		for i := 0; i < 20; i++ {
			r.Sample(now)
			now = now.Add(time.Second)
		}
		if r.StallActive() || r.StallStatus() != nil || r.MetricFamilies() != nil || len(r.Annotations()) != 0 {
			t.Fatalf("%s: the stall rule ran", name)
		}
		if ok, _ := r.Health(); !ok {
			t.Fatalf("%s: unhealthy", name)
		}
	}
}
