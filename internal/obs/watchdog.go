package obs

import (
	"context"
	"runtime"
	"sync"
	"time"

	"alohadb/internal/metrics"
)

// Event kinds emitted by the watchdog.
const (
	EventStallDetected = "stall.detected"
	EventStallCleared  = "stall.cleared"
)

// PeerProbe is one peer's reachability check inside a stall snapshot: the
// watchdog pings every peer so the snapshot names who is not answering
// (the paper's revocation protocol stalls on exactly one unacked FE).
type PeerProbe struct {
	Node      int           `json:"node"`
	Reachable bool          `json:"reachable"`
	RTT       time.Duration `json:"rtt_ns"`
	// CommittedEpoch is the peer's last committed epoch when reachable,
	// so the snapshot shows which owner's seal is lagging.
	CommittedEpoch uint64 `json:"committed_epoch,omitempty"`
	CurrentEpoch   uint64 `json:"current_epoch,omitempty"`
	Err            string `json:"err,omitempty"`
}

// EpochBuffer is one epoch's buffered-but-uncommitted functor count.
type EpochBuffer struct {
	Epoch    uint64 `json:"epoch"`
	Buffered int    `json:"buffered"`
}

// PendingFunctor describes the oldest functor metadata still waiting —
// key, f-type, how long it has queued, and the owning transaction's trace
// ID so the operator can jump to the slow-txn ring.
type PendingFunctor struct {
	Key       string        `json:"key"`
	FType     string        `json:"f_type"`
	Version   uint64        `json:"version"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	TraceID   string        `json:"trace_id,omitempty"`
}

// OwnerQueue is one combiner owner slot's occupancy.
type OwnerQueue struct {
	Owner  int `json:"owner"`
	Queued int `json:"queued"`
}

// SendQueue is one transport peer's outbound queue depth.
type SendQueue struct {
	Peer  int `json:"peer"`
	Depth int `json:"depth"`
}

// StallSnapshot is one structured flight-recorder capture, taken when the
// watchdog's progress signal stops advancing past the threshold.
type StallSnapshot struct {
	Server     int           `json:"server"`
	DetectedAt time.Time     `json:"detected_at"`
	Age        time.Duration `json:"age_ns"`
	Threshold  time.Duration `json:"threshold_ns"`

	// CommittedEpoch is the last epoch whose versions became visible here;
	// CurrentEpoch is the epoch the server currently issues timestamps in.
	// A gap means the switch protocol is wedged between revoke and commit.
	CommittedEpoch uint64 `json:"committed_epoch"`
	CurrentEpoch   uint64 `json:"current_epoch"`

	Peers            []PeerProbe `json:"peers,omitempty"`
	UnreachablePeers []int       `json:"unreachable_peers,omitempty"`

	// InflightEpochs lists epochs with unacked reservations (a revoked
	// epoch here means this server itself is the unacked FE).
	InflightEpochs []uint64 `json:"inflight_epochs,omitempty"`
	// PendingEpochs lists epochs with buffered functor metadata waiting
	// for commit.
	PendingEpochs []EpochBuffer `json:"pending_epochs,omitempty"`
	// OldestPending is the longest-waiting functor (buffered or queued).
	OldestPending *PendingFunctor `json:"oldest_pending,omitempty"`

	ProcessorQueues []int        `json:"processor_queues,omitempty"`
	CombinerQueues  []OwnerQueue `json:"combiner_queues,omitempty"`
	SendQueues      []SendQueue  `json:"send_queues,omitempty"`

	// WALFsyncAge is the time since the durability hook's last fsync, when
	// a hook exposing it is attached (-1 when unknown).
	WALFsyncAge time.Duration `json:"wal_fsync_age_ns,omitempty"`

	// SlowTraces cross-links the tracer's slow-transaction ring: trace IDs
	// captured around the stall, inspectable at /debug/traces.
	SlowTraces []string `json:"slow_traces,omitempty"`

	Goroutines       int    `json:"goroutines,omitempty"`
	GoroutineProfile string `json:"goroutine_profile,omitempty"`
}

// Event is one watchdog state transition, kept in a bounded ring.
type Event struct {
	Kind string    `json:"kind"`
	At   time.Time `json:"at"`
	// Epoch is the committed epoch at the transition.
	Epoch uint64 `json:"epoch"`
	// Age is how long progress had been stuck (detected) or how long the
	// whole episode lasted (cleared).
	Age time.Duration `json:"age_ns"`
}

// WatchdogConfig configures one server's epoch-progress watchdog.
type WatchdogConfig struct {
	// Server is the owning server's ID, stamped on snapshots.
	Server int
	// Threshold is the maximum progress age before a stall is declared.
	// Required (Watchdog returns nil without it).
	Threshold time.Duration
	// Poll is the check cadence (default Threshold/4, min 1ms).
	Poll time.Duration
	// Progress returns a monotonically advancing value — ALOHA-DB uses the
	// visibility bound, so any committed epoch is progress. Required.
	Progress func() uint64
	// Capture builds the stall snapshot (peer probes, queue depths, …).
	// Called once per stall episode, outside the watchdog lock. Optional.
	Capture func(ctx context.Context) *StallSnapshot
	// OnEvent receives stall.detected / stall.cleared transitions
	// (optional; events are also kept in the ring).
	OnEvent func(Event)
}

// Watchdog tracks one server's epoch progress and records stalls. A nil
// *Watchdog is valid and inert, mirroring the tracer's disabled path.
type Watchdog struct {
	cfg  WatchdogConfig
	stop chan struct{}
	done chan struct{}

	// ring bounds the snapshot ring and profileBytes the goroutine profile
	// attached to each snapshot (0 attaches none); tests shrink both.
	ring         int
	profileBytes int

	mu          sync.Mutex
	lastVal     uint64
	lastChange  time.Time
	active      bool
	activeSince time.Time
	stalls      uint64
	snaps       []*StallSnapshot // ring, newest last
	events      []Event          // ring, newest last
}

const watchdogEventRing = 64

// NewWatchdog builds a stopped watchdog; call Start to begin polling.
// Returns nil (inert) when Threshold or Progress is unset.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Threshold <= 0 || cfg.Progress == nil {
		return nil
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.Threshold / 4
	}
	if cfg.Poll < time.Millisecond {
		cfg.Poll = time.Millisecond
	}
	return &Watchdog{cfg: cfg, ring: 16, profileBytes: 16 << 10}
}

// Start begins the polling loop. Nil-safe no-op.
func (w *Watchdog) Start() {
	if w == nil || w.stop != nil {
		return
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	w.mu.Lock()
	w.lastVal = w.cfg.Progress()
	w.lastChange = time.Now()
	w.mu.Unlock()
	go w.loop()
}

// Stop halts the loop. Nil-safe, idempotent.
func (w *Watchdog) Stop() {
	if w == nil || w.stop == nil {
		return
	}
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

func (w *Watchdog) loop() {
	defer close(w.done)
	t := time.NewTicker(w.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.check(time.Now())
		}
	}
}

// check is one poll: progress advanced clears any active stall; a stuck
// value past the threshold opens one (one capture per episode).
func (w *Watchdog) check(now time.Time) {
	cur := w.cfg.Progress()
	w.mu.Lock()
	if cur != w.lastVal {
		w.lastVal = cur
		w.lastChange = now
		if !w.active {
			w.mu.Unlock()
			return
		}
		w.active = false
		ev := Event{Kind: EventStallCleared, At: now, Epoch: cur, Age: now.Sub(w.activeSince)}
		w.pushEvent(ev)
		w.mu.Unlock()
		w.emit(ev)
		return
	}
	age := now.Sub(w.lastChange)
	if w.active || age < w.cfg.Threshold {
		w.mu.Unlock()
		return
	}
	w.active = true
	w.activeSince = now
	w.stalls++
	ev := Event{Kind: EventStallDetected, At: now, Epoch: cur, Age: age}
	w.pushEvent(ev)
	w.mu.Unlock()

	snap := w.capture(now, age, cur)
	w.mu.Lock()
	w.snaps = append(w.snaps, snap)
	if len(w.snaps) > w.ring {
		w.snaps = w.snaps[len(w.snaps)-w.ring:]
	}
	w.mu.Unlock()
	w.emit(ev)
}

// capture runs the configured capture hook (outside the lock — it probes
// peers) and fills the watchdog-owned fields.
func (w *Watchdog) capture(now time.Time, age time.Duration, progress uint64) *StallSnapshot {
	var snap *StallSnapshot
	if w.cfg.Capture != nil {
		// The capture probes peers; bounding it by the threshold keeps a
		// hung probe from blocking the poll loop past one episode.
		ctx, cancel := context.WithTimeout(context.Background(), w.cfg.Threshold)
		snap = w.cfg.Capture(ctx)
		cancel()
	}
	if snap == nil {
		snap = &StallSnapshot{}
	}
	snap.Server = w.cfg.Server
	snap.DetectedAt = now
	snap.Age = age
	snap.Threshold = w.cfg.Threshold
	if snap.Goroutines == 0 {
		snap.Goroutines = runtime.NumGoroutine()
	}
	if snap.GoroutineProfile == "" && w.profileBytes > 0 {
		buf := make([]byte, w.profileBytes)
		n := runtime.Stack(buf, true)
		snap.GoroutineProfile = string(buf[:n])
	}
	return snap
}

func (w *Watchdog) pushEvent(ev Event) {
	w.events = append(w.events, ev)
	if len(w.events) > watchdogEventRing {
		w.events = w.events[len(w.events)-watchdogEventRing:]
	}
}

func (w *Watchdog) emit(ev Event) {
	if w.cfg.OnEvent != nil {
		w.cfg.OnEvent(ev)
	}
}

// Active reports whether a stall episode is open. Nil-safe.
func (w *Watchdog) Active() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.active
}

// Stalls returns the number of stall episodes detected since start.
// Nil-safe and allocation-free (the flight recorder samples it every
// tick).
func (w *Watchdog) Stalls() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalls
}

// Health returns (ok, reason) for readiness probes: not ok while a stall
// episode is open. Nil-safe (always healthy).
func (w *Watchdog) Health() (bool, string) {
	if w == nil {
		return true, ""
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.active {
		return true, ""
	}
	return false, "epoch stall: no progress for " + time.Since(w.lastChange).Round(time.Millisecond).String() +
		" (threshold " + w.cfg.Threshold.String() + ")"
}

// Snapshots returns the flight-recorder ring, oldest first. Nil-safe.
func (w *Watchdog) Snapshots() []*StallSnapshot {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*StallSnapshot, len(w.snaps))
	copy(out, w.snaps)
	return out
}

// StallStatus is the /debug/stall JSON document.
type StallStatus struct {
	Active bool `json:"active"`
	// StallsTotal counts stall episodes since start.
	StallsTotal uint64 `json:"stalls_total"`
	// ProgressAge is how long the progress signal has been unchanged.
	ProgressAge time.Duration `json:"progress_age_ns"`
	Threshold   time.Duration `json:"threshold_ns"`
	// Snapshots is the flight-recorder ring, oldest first; the last entry
	// describes the active (or most recent) stall.
	Snapshots []*StallSnapshot `json:"snapshots,omitempty"`
	Events    []Event          `json:"events,omitempty"`
}

// Status assembles the /debug/stall document. Nil-safe (inactive, empty).
func (w *Watchdog) Status() StallStatus {
	if w == nil {
		return StallStatus{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	st := StallStatus{
		Active:      w.active,
		StallsTotal: w.stalls,
		Threshold:   w.cfg.Threshold,
	}
	if !w.lastChange.IsZero() {
		st.ProgressAge = time.Since(w.lastChange)
	}
	st.Snapshots = make([]*StallSnapshot, len(w.snaps))
	copy(st.Snapshots, w.snaps)
	st.Events = make([]Event, len(w.events))
	copy(st.Events, w.events)
	return st
}

// Watchdog metric family names.
const (
	FamStallActive = "aloha_stall_active"
	FamStallsTotal = "aloha_stalls_total"
	FamEpochAge    = "aloha_epoch_age_seconds"
)

// MetricFamilies renders the watchdog's gauges. Nil-safe.
func (w *Watchdog) MetricFamilies() []metrics.Family {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	active := int64(0)
	if w.active {
		active = 1
	}
	stalls := w.stalls
	var age time.Duration
	if !w.lastChange.IsZero() {
		age = time.Since(w.lastChange)
	}
	w.mu.Unlock()
	return []metrics.Family{
		{
			Name: FamStallActive, Help: "1 while an epoch-progress stall episode is open.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(active)},
		},
		{
			Name: FamStallsTotal, Help: "Epoch-progress stall episodes detected since start.",
			Kind:   metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(stalls)},
		},
		{
			Name: FamEpochAge, Help: "Time since the visibility bound last advanced.",
			Kind: metrics.KindGauge, Unit: metrics.UnitSeconds,
			Series: []metrics.Series{metrics.GaugeSeries(int64(age))},
		},
	}
}
