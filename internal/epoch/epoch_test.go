package epoch

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/tstamp"
)

// fakeParticipant records the protocol events it observes.
type fakeParticipant struct {
	mu        sync.Mutex
	grants    []tstamp.Epoch
	revokes   []tstamp.Epoch
	committed []tstamp.Epoch
	ackDelay  time.Duration
	holdAck   bool
	pending   []func()
}

func (f *fakeParticipant) Grant(e tstamp.Epoch) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.grants = append(f.grants, e)
}

func (f *fakeParticipant) Revoke(e tstamp.Epoch, ack func()) {
	f.mu.Lock()
	f.revokes = append(f.revokes, e)
	hold := f.holdAck
	delay := f.ackDelay
	if hold {
		f.pending = append(f.pending, ack)
	}
	f.mu.Unlock()
	if hold {
		return
	}
	if delay > 0 {
		go func() {
			time.Sleep(delay)
			ack()
		}()
		return
	}
	ack()
}

func (f *fakeParticipant) Committed(e tstamp.Epoch) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.committed = append(f.committed, e)
}

func (f *fakeParticipant) releaseAcks() {
	f.mu.Lock()
	pending := f.pending
	f.pending = nil
	f.mu.Unlock()
	for _, ack := range pending {
		ack()
	}
}

func (f *fakeParticipant) snapshot() (grants, revokes, committed []tstamp.Epoch) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]tstamp.Epoch(nil), f.grants...),
		append([]tstamp.Epoch(nil), f.revokes...),
		append([]tstamp.Epoch(nil), f.committed...)
}

func TestStartGrantsEpochOne(t *testing.T) {
	m := New(Config{})
	p := &fakeParticipant{}
	if err := m.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	grants, _, committed := p.snapshot()
	if len(grants) != 1 || grants[0] != 1 {
		t.Errorf("grants = %v, want [1]", grants)
	}
	if len(committed) != 1 || committed[0] != 0 {
		t.Errorf("committed = %v, want [0]", committed)
	}
	if m.Current() != 1 {
		t.Errorf("Current() = %d, want 1", m.Current())
	}
	if err := m.Start(); err == nil {
		t.Error("double Start should fail")
	}
}

func TestAdvanceProtocolOrder(t *testing.T) {
	m := New(Config{})
	p1, p2 := &fakeParticipant{}, &fakeParticipant{}
	for _, p := range []*fakeParticipant{p1, p2} {
		if err := m.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	next, err := m.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if next != 2 {
		t.Errorf("Advance() = %d, want 2", next)
	}
	for i, p := range []*fakeParticipant{p1, p2} {
		grants, revokes, committed := p.snapshot()
		if len(revokes) != 1 || revokes[0] != 1 {
			t.Errorf("p%d revokes = %v, want [1]", i+1, revokes)
		}
		wantGrants := []tstamp.Epoch{1, 2}
		wantCommitted := []tstamp.Epoch{0, 1}
		if len(grants) != 2 || grants[0] != wantGrants[0] || grants[1] != wantGrants[1] {
			t.Errorf("p%d grants = %v, want %v", i+1, grants, wantGrants)
		}
		if len(committed) != 2 || committed[0] != wantCommitted[0] || committed[1] != wantCommitted[1] {
			t.Errorf("p%d committed = %v, want %v", i+1, committed, wantCommitted)
		}
	}
}

func TestAdvanceBeforeStart(t *testing.T) {
	m := New(Config{})
	if _, err := m.Advance(); err == nil {
		t.Error("Advance before Start should fail")
	}
}

func TestRegisterAfterStart(t *testing.T) {
	m := New(Config{})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(&fakeParticipant{}); err == nil {
		t.Error("Register after Start should fail")
	}
}

func TestAdvanceWaitsForAcks(t *testing.T) {
	m := New(Config{})
	p := &fakeParticipant{holdAck: true}
	if err := m.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var advanced atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m.Advance(); err != nil {
			t.Errorf("Advance: %v", err)
			return
		}
		advanced.Store(true)
	}()
	time.Sleep(50 * time.Millisecond)
	if advanced.Load() {
		t.Fatal("Advance completed before revoke ack")
	}
	p.releaseAcks()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Advance hung after acks released")
	}
	if !advanced.Load() {
		t.Error("Advance did not complete")
	}
}

func TestSwitchTimeoutEscapesStraggler(t *testing.T) {
	m := New(Config{SwitchTimeout: 30 * time.Millisecond})
	straggler := &fakeParticipant{holdAck: true}
	if err := m.Register(straggler); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m.Advance(); err != nil {
			t.Errorf("Advance: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Advance did not escape the straggler")
	}
	if m.Current() != 2 {
		t.Errorf("Current() = %d, want 2", m.Current())
	}
	straggler.releaseAcks() // late ack must be harmless
}

func TestRunAdvancesOnTimer(t *testing.T) {
	m := New(Config{Duration: 5 * time.Millisecond})
	p := &fakeParticipant{}
	if err := m.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	deadline := time.After(2 * time.Second)
	for m.Current() < 4 {
		select {
		case <-deadline:
			t.Fatalf("epochs did not advance; current = %d", m.Current())
		case <-time.After(time.Millisecond):
		}
	}
	count, total := m.SwitchStats()
	if count < 3 {
		t.Errorf("switch count = %d, want >= 3", count)
	}
	if total <= 0 {
		t.Error("switch duration not recorded")
	}
}

func TestRunTwiceFails(t *testing.T) {
	m := New(Config{Duration: time.Hour})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if err := m.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestStopIdempotentWithoutRun(t *testing.T) {
	m := New(Config{})
	m.Stop()
	m.Stop()
}

func TestDefaultDuration(t *testing.T) {
	if d := New(Config{}).Duration(); d != DefaultDuration {
		t.Errorf("Duration() = %v, want %v", d, DefaultDuration)
	}
	if d := New(Config{Duration: time.Second}).Duration(); d != time.Second {
		t.Errorf("Duration() = %v, want 1s", d)
	}
}

func TestConcurrentAdvanceRejected(t *testing.T) {
	m := New(Config{})
	p := &fakeParticipant{holdAck: true}
	if err := m.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m.Advance(); err != nil {
			t.Errorf("first Advance: %v", err)
		}
	}()
	// Wait until the first switch is blocked on the held ack.
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		blocked := len(p.pending) > 0
		p.mu.Unlock()
		if blocked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first Advance never reached the revoke")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Advance(); err == nil {
		t.Error("concurrent Advance should be rejected")
	}
	p.releaseAcks()
	<-done
}

// TestSwitchTimeoutLeaksNoGoroutine times out 200 switches on a
// participant that never acks: the goroutine count must not grow with the
// switches (a waiter per timed-out switch would add 200).
func TestSwitchTimeoutLeaksNoGoroutine(t *testing.T) {
	m := New(Config{SwitchTimeout: time.Millisecond})
	if err := m.Register(&fakeParticipant{holdAck: true}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		if _, err := m.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Errorf("goroutines %d -> %d over 200 timed-out switches", before, after)
	}
}

// TestNextSwitchOnGrid: Run's switches start on the grid origin + k·d. A
// switch that ends before the next grid point leaves it in place, however
// late it started; one that overruns skips every point it passed and never
// starts the next switch back to back.
func TestNextSwitchOnGrid(t *testing.T) {
	const d = 10 * time.Millisecond
	for _, tc := range []struct {
		name           string
		due, now, want time.Duration
	}{
		{"on time", 3 * d, 3 * d, 4 * d},
		{"switch took part of the epoch", 3 * d, 3*d + 4*time.Millisecond, 4 * d},
		{"late by less than d", 3 * d, 4*d - time.Microsecond, 4 * d},
		{"ended on the next grid point", 3 * d, 4 * d, 5 * d},
		{"overran one grid point", 3 * d, 4*d + 5*time.Millisecond, 5 * d},
		{"overran two grid points", 3 * d, 5*d + 5*time.Millisecond, 6 * d},
	} {
		if got := nextSwitch(tc.due, tc.now, d); got != tc.want {
			t.Errorf("%s: nextSwitch(%v, %v, %v) = %v, want %v", tc.name, tc.due, tc.now, d, got, tc.want)
		}
	}
}

// slowCommitter acks at once and takes commit to handle Committed, as a
// server that seals, fsyncs and hands off does; it records when each grant
// arrives.
type slowCommitter struct {
	commit time.Duration
	mu     sync.Mutex
	grants []time.Time
}

func (p *slowCommitter) Grant(tstamp.Epoch) {
	p.mu.Lock()
	p.grants = append(p.grants, time.Now())
	p.mu.Unlock()
}

func (p *slowCommitter) Revoke(_ tstamp.Epoch, ack func()) { ack() }

func (p *slowCommitter) Committed(tstamp.Epoch) { time.Sleep(p.commit) }

func (p *slowCommitter) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.grants)
}

// BenchmarkEpochCadence runs b.N timer-driven switches at a 10 ms Duration
// against one participant whose Committed takes 4 ms, and reports the
// median switch-to-switch period (p50-period-us). On the grid it is the
// Duration; a timer re-armed after each switch adds the switch to it
// (~15 ms). make commit-guard holds it to 1.1 × Duration.
func BenchmarkEpochCadence(b *testing.B) {
	p := &slowCommitter{commit: 4 * time.Millisecond}
	m := New(Config{Duration: 10 * time.Millisecond})
	if err := m.Register(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	// Start grants the first epoch; each switch grants one more.
	for p.count() < b.N+2 {
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	b.StopTimer()
	p.mu.Lock()
	defer p.mu.Unlock()
	periods := make([]time.Duration, 0, len(p.grants))
	for i := 2; i < len(p.grants); i++ {
		periods = append(periods, p.grants[i].Sub(p.grants[i-1]))
	}
	sort.Slice(periods, func(i, j int) bool { return periods[i] < periods[j] })
	b.ReportMetric(float64(periods[len(periods)/2].Microseconds()), "p50-period-us")
}
