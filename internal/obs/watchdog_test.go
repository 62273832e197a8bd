package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestWatchdogDetectAndClear drives a fake progress signal through a stall
// and recovery and checks the detected/cleared event pair, the snapshot
// capture, and Health.
func TestWatchdogDetectAndClear(t *testing.T) {
	var progress atomic.Uint64
	var captured atomic.Int32

	w := NewWatchdog(WatchdogConfig{
		Server:    7,
		Threshold: 30 * time.Millisecond,
		Progress:  progress.Load,
		Capture: func(ctx context.Context) *StallSnapshot {
			captured.Add(1)
			return &StallSnapshot{
				CommittedEpoch:   4,
				CurrentEpoch:     5,
				UnreachablePeers: []int{2},
			}
		},
	})
	w.Start()
	defer w.Stop()

	// Healthy while progress advances.
	progress.Store(1)
	time.Sleep(15 * time.Millisecond)
	if w.Active() {
		t.Fatal("active with fresh progress")
	}

	// Freeze progress: a stall must be detected and captured exactly once.
	if !waitFor(t, time.Second, w.Active) {
		t.Fatal("stall never detected")
	}
	if ok, reason := w.Health(); ok || !strings.Contains(reason, "epoch stall") {
		t.Fatalf("Health = %v %q during stall", ok, reason)
	}
	time.Sleep(30 * time.Millisecond) // stay stalled across more polls
	if got := captured.Load(); got != 1 {
		t.Fatalf("captured %d snapshots for one episode", got)
	}
	snaps := w.Status().Snapshots
	if len(snaps) != 1 {
		t.Fatalf("snapshot ring has %d entries", len(snaps))
	}
	s := snaps[0]
	if s.Server != 7 || s.CommittedEpoch != 4 || len(s.UnreachablePeers) != 1 || s.UnreachablePeers[0] != 2 {
		t.Fatalf("snapshot fields: %+v", s)
	}
	if s.Age < 30*time.Millisecond || s.Threshold != 30*time.Millisecond {
		t.Fatalf("snapshot age/threshold: %v/%v", s.Age, s.Threshold)
	}
	if s.Goroutines == 0 || !strings.Contains(s.GoroutineProfile, "goroutine") {
		t.Fatal("goroutine profile missing")
	}

	// Progress resumes: the episode clears.
	progress.Store(2)
	if !waitFor(t, time.Second, func() bool { return !w.Active() }) {
		t.Fatal("stall never cleared")
	}
	if ok, _ := w.Health(); !ok {
		t.Fatal("unhealthy after clear")
	}
	events := w.Status().Events
	if len(events) != 2 || events[0].Kind != EventStallDetected || events[1].Kind != EventStallCleared {
		t.Fatalf("events = %+v", events)
	}
	if events[1].Age <= 0 {
		t.Fatalf("cleared event has no episode duration: %+v", events[1])
	}
}

// TestWatchdogRingBound checks the flight-recorder rings stay bounded
// across many episodes, keeping the newest snapshots and events oldest
// first. It drives check on a synthetic clock, without Start.
func TestWatchdogRingBound(t *testing.T) {
	const episodes = eventRing
	var progress atomic.Uint64
	w := NewWatchdog(WatchdogConfig{
		Threshold: 5 * time.Millisecond,
		Progress:  progress.Load,
	})
	now := time.Unix(1000, 0)
	w.check(now) // progress 0 at the start of the clock
	for i := 0; i < episodes; i++ {
		now = now.Add(5 * time.Millisecond)
		w.check(now)
		if !w.Active() {
			t.Fatalf("episode %d never detected", i)
		}
		progress.Add(1)
		now = now.Add(time.Millisecond)
		w.check(now)
		if w.Active() {
			t.Fatalf("episode %d never cleared", i)
		}
	}
	snaps := w.Status().Snapshots
	if n := len(snaps); n != stallRing {
		t.Fatalf("ring has %d snapshots, want %d", n, stallRing)
	}
	if last := snaps[stallRing-1].DetectedAt; !last.Equal(now.Add(-time.Millisecond)) {
		t.Fatalf("newest snapshot detected at %v, want the last episode's %v", last, now.Add(-time.Millisecond))
	}
	st := w.Status()
	if st.StallsTotal != episodes {
		t.Fatalf("stalls_total = %d, want %d", st.StallsTotal, episodes)
	}
	// Two events per episode: the ring holds the newest eventRing, the last
	// eventRing/2 episodes, detected and cleared in turn.
	if len(st.Events) != eventRing {
		t.Fatalf("event ring has %d events, want %d", len(st.Events), eventRing)
	}
	for i, ev := range st.Events {
		kind, epoch := EventStallDetected, uint64(episodes-eventRing/2+i/2)
		if i%2 == 1 {
			kind, epoch = EventStallCleared, epoch+1
		}
		if ev.Kind != kind || ev.Epoch != epoch {
			t.Fatalf("event %d = %s at epoch %d, want %s at %d", i, ev.Kind, ev.Epoch, kind, epoch)
		}
	}
}

// TestWatchdogStatusJSON pins the /debug/stall JSON document shape.
func TestWatchdogStatusJSON(t *testing.T) {
	var progress atomic.Uint64
	w := NewWatchdog(WatchdogConfig{
		Server:    3,
		Threshold: 10 * time.Millisecond,
		Progress:  progress.Load,
	})
	w.Start()
	defer w.Stop()
	if !waitFor(t, time.Second, func() bool { return len(w.Status().Events) > 0 }) {
		t.Fatal("stall never detected")
	}

	b, err := json.Marshal(w.Status())
	if err != nil {
		t.Fatal(err)
	}
	var st StallStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b)
	}
	if !st.Active || st.StallsTotal != 1 || len(st.Snapshots) != 1 || len(st.Events) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Snapshots[0].Server != 3 {
		t.Fatalf("snapshot server = %d", st.Snapshots[0].Server)
	}
	if st.Events[0].Kind != EventStallDetected {
		t.Fatalf("event kind = %q", st.Events[0].Kind)
	}
}

// TestWatchdogNil checks the disabled (nil) watchdog is inert and free.
func TestWatchdogNil(t *testing.T) {
	var w *Watchdog
	w.Start()
	w.Stop()
	if w.Active() {
		t.Fatal("nil watchdog active")
	}
	if ok, _ := w.Health(); !ok {
		t.Fatal("nil watchdog unhealthy")
	}
	if w.Status().Snapshots != nil || w.Status().Events != nil || w.MetricFamilies() != nil {
		t.Fatal("nil watchdog returned data")
	}
	if NewWatchdog(WatchdogConfig{}) != nil {
		t.Fatal("config without threshold/progress must disable the watchdog")
	}
	if n := testing.AllocsPerRun(1000, func() {
		w.Active()
		_, _ = w.Health()
	}); n != 0 {
		t.Fatalf("nil watchdog allocates %v/op", n)
	}
}

// BenchmarkWatchdogDisabled backs the CI "0 allocs/op" guard for the
// disabled watchdog on the hot query path.
func BenchmarkWatchdogDisabled(b *testing.B) {
	var w *Watchdog
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.Active() {
			b.Fatal("active")
		}
	}
}
