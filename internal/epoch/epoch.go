// Package epoch implements the epoch manager (EM) of epoch-based
// concurrency control (paper §II, §III). The EM controls epoch changes by
// granting and revoking authorizations at all front-ends. ALOHA-DB uses
// unified epochs (§III-B): there is only a series of write epochs, and all
// transactions started within epoch e become visible atomically when epoch
// e+1 is granted.
//
// The manager is transport-agnostic: participants are an interface, so the
// embedded simulated cluster registers servers directly while the TCP
// deployment registers proxies that relay the protocol as messages. The
// epoch switch is the paper's amortized-one-round-trip commitment: Revoke
// (wait for in-flight transactions to drain) followed by a combined
// Committed+Grant broadcast.
package epoch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/metrics"
	"alohadb/internal/obs/journal"
	"alohadb/internal/trace"
	"alohadb/internal/tstamp"
)

// Participant is one front-end (or FE proxy) under the manager's control.
// Methods are called from the manager's switch goroutine; implementations
// must not block indefinitely, and Revoke must eventually invoke ack
// (possibly asynchronously, after in-flight transactions drain).
type Participant interface {
	// Grant authorizes the participant to start transactions in epoch e.
	Grant(e tstamp.Epoch)
	// Revoke withdraws the authorization for epoch e. The participant
	// stops starting authorized transactions in e (it may continue in
	// straggler mode, drawing timestamps from e+1, per §III-C) and calls
	// ack once every in-flight epoch-e transaction has completed its
	// write-only phase.
	Revoke(e tstamp.Epoch, ack func())
	// Committed announces that every transaction of epoch e is durable on
	// all participants: epoch-e versions become visible and their functors
	// become computable.
	Committed(e tstamp.Epoch)
}

// Config tunes a Manager.
type Config struct {
	// Duration is the epoch length for the timer-driven Run loop: the next
	// switch starts Duration after the previous one ends. The paper's
	// default deployment uses 25 ms.
	Duration time.Duration
	// SwitchTimeout bounds how long the manager waits for revoke acks
	// before proceeding anyway (crash-stop straggler escape hatch).
	// Zero means wait forever.
	SwitchTimeout time.Duration
	// StartEpoch is the first epoch granted by Start (default 1). Recovery
	// restarts a cluster at the epoch after the last durably committed
	// one; every epoch up to StartEpoch-1 is announced as committed.
	StartEpoch tstamp.Epoch
}

// DefaultDuration is the paper's default unified epoch duration (§V-A2).
const DefaultDuration = 25 * time.Millisecond

// Manager is the epoch manager. Create with New, attach participants, then
// either drive epochs manually with Advance (deterministic tests) or start
// the timer loop with Run.
type Manager struct {
	cfg Config

	mu           sync.Mutex
	participants []Participant
	current      tstamp.Epoch
	started      bool
	switching    bool
	barrier      func(e tstamp.Epoch)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	running  bool

	// switchHist is the distribution of epoch-switch durations
	// (revoke broadcast through the Committed+Grant broadcast), the
	// manager-side view of epoch-switch jitter.
	switchHist *metrics.Histogram

	// tr, when set, records each Advance as an epoch.switch trace root with
	// the ack-wait broken out. The Participant interface carries no context,
	// so each server's commit work traces as its own epoch.commit root
	// rather than as a child of this span.
	tr *trace.NodeTracer

	// journal is the EM-side epoch lifecycle mirror (switch decision, per-
	// participant ack arrivals, commit broadcast); created at Start when the
	// participant count is known. Always on — one fixed ring of small slots.
	journal *journal.EM
}

// Journal exposes the EM-side epoch journal (nil before Start); merged
// with server journals it names the ack straggler of each epoch switch.
func (m *Manager) Journal() *journal.EM {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal
}

// SetTracer attaches a tracer handle; call before Start. Nil disables.
func (m *Manager) SetTracer(tr *trace.NodeTracer) { m.tr = tr }

// SetBarrier installs a hook that Advance invokes inside the epoch switch,
// after every revoke ack and before the Committed+Grant broadcast. At that
// instant no epoch-e transaction is in flight anywhere (the revoke-ack
// quiescence of §III-B) and epoch e+1 has not been granted, which makes it
// the one safe window for atomic cluster-wide reconfiguration — the
// rebalancer executes ownership handoffs here. The hook runs on the switch
// goroutine and must not call Advance or block on epoch progress.
func (m *Manager) SetBarrier(fn func(e tstamp.Epoch)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.barrier = fn
}

// New returns a manager with the given configuration. A zero Duration
// defaults to DefaultDuration for Run; Advance ignores it.
func New(cfg Config) *Manager {
	if cfg.Duration <= 0 {
		cfg.Duration = DefaultDuration
	}
	if cfg.StartEpoch == 0 {
		cfg.StartEpoch = 1
	}
	return &Manager{
		cfg:        cfg,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		switchHist: metrics.NewHistogram(metrics.LatencyBounds()),
	}
}

// Register attaches a participant. All participants must be registered
// before Start.
func (m *Manager) Register(p Participant) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("epoch: register after Start")
	}
	m.participants = append(m.participants, p)
	return nil
}

// Current returns the epoch currently granted (0 before Start).
func (m *Manager) Current() tstamp.Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current
}

// Start commits the data-loading epoch 0 and grants epoch 1 to every
// participant.
func (m *Manager) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return fmt.Errorf("epoch: already started")
	}
	m.started = true
	first := m.cfg.StartEpoch
	m.current = first
	parts := m.participants
	// Participant index doubles as the server ID (the address-book
	// convention registers servers in ID order).
	m.journal = journal.NewEM(len(parts))
	m.mu.Unlock()
	for _, p := range parts {
		p.Committed(first - 1)
		p.Grant(first)
	}
	return nil
}

// Advance performs one epoch switch: revoke the current epoch from every
// participant, wait for their acks, then broadcast Committed(current) and
// Grant(current+1). It returns the newly granted epoch.
func (m *Manager) Advance() (tstamp.Epoch, error) {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return 0, fmt.Errorf("epoch: Advance before Start")
	}
	if m.switching {
		m.mu.Unlock()
		return 0, fmt.Errorf("epoch: concurrent Advance")
	}
	if m.current >= tstamp.MaxEpoch-1 {
		m.mu.Unlock()
		return 0, fmt.Errorf("epoch: epoch space exhausted")
	}
	m.switching = true
	e := m.current
	parts := m.participants
	barrier := m.barrier
	jr := m.journal
	m.mu.Unlock()

	begin := time.Now()
	jr.Decide(uint64(e), begin)
	ctx, span := m.tr.StartRoot(context.Background(), "epoch.switch")
	span.SetAttrInt("epoch", int64(e))
	defer span.End()
	// The acks count down; the last one closes acked. A late ack after a
	// timed-out switch only decrements a counter nobody waits on.
	acked := make(chan struct{})
	var left atomic.Int64
	left.Store(int64(len(parts)))
	if len(parts) == 0 {
		close(acked)
	}
	for i, p := range parts {
		i := i
		p.Revoke(e, func() {
			// The ack's arrival instant at the EM, journaled before the
			// count releases the switch.
			jr.Ack(uint64(e), i, time.Now())
			if left.Add(-1) == 0 {
				close(acked)
			}
		})
	}
	_, ackSpan := m.tr.Start(ctx, "epoch.ackwait")
	m.waitAcks(acked)
	ackSpan.End()
	if barrier != nil {
		barrier(e)
	}
	next := e + 1
	jr.Commit(uint64(e), time.Now())
	for _, p := range parts {
		p.Committed(e)
		p.Grant(next)
	}
	elapsed := time.Since(begin)
	m.switchHist.ObserveDuration(elapsed)
	m.mu.Lock()
	m.current = next
	m.switching = false
	m.mu.Unlock()
	return next, nil
}

// waitAcks waits for every revoke ack (acked closes), bounded by
// SwitchTimeout. On a timeout the switch proceeds without the straggler:
// the straggler optimization (§III-C) means FEs already moved on to
// no-auth mode, and any transaction the straggler still starts draws
// epoch e+1 timestamps.
func (m *Manager) waitAcks(acked <-chan struct{}) {
	if m.cfg.SwitchTimeout <= 0 {
		<-acked
		return
	}
	timer := time.NewTimer(m.cfg.SwitchTimeout)
	defer timer.Stop()
	select {
	case <-acked:
	case <-timer.C:
	}
}

// Run drives epoch switches on the configured duration until Stop. It
// calls Start if the manager has not started yet.
func (m *Manager) Run() error {
	m.mu.Lock()
	started := m.started
	if m.running {
		m.mu.Unlock()
		return fmt.Errorf("epoch: Run called twice")
	}
	m.running = true
	m.mu.Unlock()
	if !started {
		if err := m.Start(); err != nil {
			return err
		}
	}
	go func() {
		defer close(m.done)
		// A resettable timer instead of a ticker: the next epoch starts
		// Duration after a switch ends, however long the switch took.
		timer := time.NewTimer(m.cfg.Duration)
		defer timer.Stop()
		for {
			select {
			case <-timer.C:
				if _, err := m.Advance(); err != nil {
					return
				}
				timer.Reset(m.cfg.Duration)
			case <-m.stop:
				return
			}
		}
	}()
	return nil
}

// Stop terminates the Run loop and waits for it to exit. Safe to call
// multiple times and even if Run was never called.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() {
		close(m.stop)
	})
	m.mu.Lock()
	running := m.running
	m.mu.Unlock()
	if running {
		<-m.done
	}
}

// SwitchStats reports how many epoch switches have completed and their
// cumulative duration; used by the benchmark harness. The full
// distribution is available via MetricFamilies.
func (m *Manager) SwitchStats() (count int, total time.Duration) {
	s := m.switchHist.Snapshot()
	return int(s.Count), time.Duration(s.Sum)
}

// Metric family names exported by the manager.
const (
	// FamSwitch is the manager-side switch-duration histogram (revoke
	// broadcast through Committed+Grant).
	FamSwitch = "aloha_em_switch_seconds"
	// FamCurrentEpoch is the currently granted epoch number.
	FamCurrentEpoch = "aloha_epoch_current"
)

// MetricFamilies returns the manager's metric snapshot: the epoch-switch
// duration histogram and the current epoch gauge.
func (m *Manager) MetricFamilies() []metrics.Family {
	return []metrics.Family{
		{
			Name: FamSwitch,
			Help: "Epoch-switch duration at the manager (revoke through Committed+Grant broadcast).",
			Kind: metrics.KindHistogram, Unit: metrics.UnitSeconds,
			Series: []metrics.Series{metrics.HistSeries(m.switchHist.Snapshot())},
		},
		{
			Name:   FamCurrentEpoch,
			Help:   "Currently granted epoch.",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(int64(m.Current()))},
		},
	}
}

// Duration returns the configured epoch duration.
func (m *Manager) Duration() time.Duration { return m.cfg.Duration }
