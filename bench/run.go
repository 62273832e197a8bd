package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
	"alohadb/internal/workload/tpcc"
)

// runConfig sizes one workload run: a lat stage (open loop) on one
// cluster, then satReps sat repetitions (closed loop), each on a cluster of
// its own. Every cluster is set up (timed), driven, checked and closed.
type runConfig struct {
	seed    int64
	trace   bool
	warm    time.Duration // open-loop warm-up before the lat window
	lat     time.Duration // open loop at the workload's frozen rate
	satWarm time.Duration // closed-loop warm-up of each repetition's cluster, at the nominal rate
	satRep  time.Duration // one closed-loop repetition, at the nominal rate
	satReps int
	clients int
	// hostLoads is the length of one reading of the host reference; one is
	// taken before every cluster's setup.
	hostLoads int
	tmpDir    string // WAL and span files go below it
}

// windows splits a measuring budget of seconds 1:3 into the lat window and
// the sat repetitions (20 s: 5 s and 8 × 1.875 s). A traced run halves the
// lat window and traces every other sat repetition, so that tracing
// overhead is measured against untraced neighbours.
//
// A sat repetition does a fixed amount of work on a fresh cluster, not a
// fixed time on a shared one. Nothing retires versions on the TPC-C
// workloads, so under saturation the heap grows by ~60 MB/s; the collector
// doubles its goal each cycle, a mark phase over 1 GB takes seconds and
// cuts throughput to a third while it lasts, and whether the last, longest
// cycle starts before the run ends decides a fifth of the result. On a
// fresh cluster every repetition starts from the same ~40 MB and passes
// through the same short cycles: repetitions of one run then differ by a
// third where they differed fourfold, and runs by a tenth where they
// differed by a quarter.
func windows(seconds float64, trace bool) runConfig {
	unit := time.Duration(seconds / 40 * float64(time.Second))
	rc := runConfig{
		trace:   trace,
		warm:    3 * unit,
		lat:     10 * unit,
		satWarm: 6 * unit / 10,
		satRep:  30 * unit / 8,
		satReps: 8,
		clients: min(runtime.NumCPU(), 4),
		// 20 s: nine readings of 0.6 M loads, ~85 ms each.
		hostLoads: int(seconds * 30_000),
	}
	if trace {
		rc.lat /= 2
	}
	return rc
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`   // samples behind the value
	Min   float64 `json:"min,omitempty"` // over sat repetitions, setups or probe batches
	Max   float64 `json:"max,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Describe  string   `json:"describe"`
	Correct   bool     `json:"correct"`
	Valid     bool     `json:"valid"` // false when the open-loop generator ran late
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics holds the run-level timings of every run and, when traced,
	// the per-layer rows; BENCHMARK.json says which are end-to-end.
	Metrics  map[string]metric `json:"metrics"`
	SatReps  []float64         `json:"sat_rep_txn_per_s"` // each sat repetition's rate, in order
	WallS    string            `json:"wall_s"`            // where the run's wall clock went, for sizing runs against a time cap
	SpanFile string            `json:"span_file,omitempty"`
	Spans    int               `json:"spans,omitempty"`
}

// client is one writer: its stream and span buffer last the run, the
// rest belongs to the cluster it is attached to.
type client struct {
	fe      *core.Server
	next    func() op
	t       *tally
	spans   *spanBuf
	selfNs  int64 // root-span self time (generation + bookkeeping) over traced batches
	selfOps int64
	touched []kv.Key // ring of sampled write keys, for chain-length rows
	touches int      // keys ever offered to the ring
	batches int
}

const touchedRing = 4096

// touch samples the write keys of every 64th batch's first transaction.
func (cl *client) touch(o *op) {
	cl.batches++
	if cl.batches%64 != 0 {
		return
	}
	for _, w := range o.txn.Writes {
		if len(cl.touched) < touchedRing {
			cl.touched = append(cl.touched, w.Key)
		} else {
			cl.touched[cl.touches%touchedRing] = w.Key
		}
		cl.touches++
	}
}

// closedLoop submits batches of satBatch transactions back to back, pacing
// on the install acknowledgment (ack option 1, §IV-A), until the clients
// together have taken every batch of the repetition.
func (cl *client) closedLoop(ctx context.Context, batches *atomic.Int64, traced bool) {
	ops := make([]op, satBatch)
	batch := make([]core.Txn, satBatch)
	for batches.Add(-1) >= 0 && ctx.Err() == nil {
		var t0, t1, t2 time.Time
		if traced {
			t0 = time.Now()
		}
		for i := range ops {
			ops[i] = cl.next()
			batch[i] = ops[i].txn
		}
		if traced {
			t1 = time.Now()
		}
		results, _, err := cl.fe.SubmitBatch(ctx, batch)
		if traced {
			t2 = time.Now()
		}
		if err != nil {
			for i := range ops {
				cl.t.record(&ops[i].opMeta, tstamp.Zero, false, "", err)
			}
			return
		}
		for i, res := range results {
			cl.t.record(&ops[i].opMeta, res.Version, !res.Aborted, res.Reason, nil)
		}
		if traced {
			cl.touch(&ops[0])
			t3 := time.Now()
			root := cl.spans.add(0, spanBatch, t0, t3, satBatch)
			cl.spans.add(root, spanSubmit, t1, t2, 0)
			cl.selfNs += (t3.Sub(t0) - t2.Sub(t1)).Nanoseconds()
			cl.selfOps += satBatch
		}
	}
}

// reader is the mixed workload's read client on server 0: point reads of
// keys owned by server 1 and consistent snapshots of one warehouse's
// year-to-date rows.
type reader struct {
	fe        *core.Server
	rng       *rand.Rand
	spans     *spanBuf
	attempted atomic.Uint64
	failed    atomic.Uint64
	mu        sync.Mutex
	firstFail string
	snapshots atomic.Uint64 // ReadMany results checked for epoch-atomic visibility
}

func (rd *reader) fail(format string, args ...any) {
	rd.failed.Add(1)
	rd.mu.Lock()
	if rd.firstFail == "" {
		rd.firstFail = fmt.Sprintf(format, args...)
	}
	rd.mu.Unlock()
}

// remoteKey picks a stock or customer-balance key of warehouse 2, which
// server 1 owns.
func (rd *reader) remoteKey() kv.Key {
	const w = 2
	if rd.rng.Intn(2) == 0 {
		return tpcc.StockKey(w, 1+rd.rng.Intn(tpccConfig.Items))
	}
	return tpcc.CustomerBalanceKey(w, 1+rd.rng.Intn(10), 1+rd.rng.Intn(tpccConfig.CustomersPerDistrict))
}

func snapshotKeys(w int) []kv.Key {
	keys := []kv.Key{tpcc.WarehouseYTDKey(w)}
	for d := 1; d <= tpccConfig.DistrictsPerWarehouse(); d++ {
		keys = append(keys, tpcc.DistrictYTDKey(w, d))
	}
	return keys
}

func (rd *reader) get(ctx context.Context, k kv.Key) {
	rd.attempted.Add(1)
	if _, found, err := rd.fe.GetCommitted(ctx, k); err != nil {
		rd.fail("GetCommitted %s: %v", k, err)
	} else if !found {
		rd.fail("GetCommitted %s: preloaded key not found", k)
	}
}

func (rd *reader) readMany(ctx context.Context, w int) {
	rd.attempted.Add(1)
	vals, _, err := rd.fe.ReadMany(ctx, snapshotKeys(w))
	if err != nil {
		rd.fail("ReadMany warehouse %d: %v", w, err)
		return
	}
	rd.snapshots.Add(1)
	if ok, detail := checkSnapshot(w, vals); !ok {
		rd.fail("ReadMany saw a torn epoch: %s", detail)
	}
}

// closedLoop repeats {16 × GetCommitted, one ReadMany} until stop is set
// and returns the number of reads completed.
func (rd *reader) closedLoop(ctx context.Context, stop *atomic.Bool, traced bool) (done uint64) {
	w := 1
	for !stop.Load() {
		for i := 0; i < 16 && !stop.Load(); i++ {
			k := rd.remoteKey()
			t0 := time.Now()
			rd.get(ctx, k)
			if traced {
				rd.spans.addRead(spanGetCommitted, t0, t0, time.Now())
			}
			done++
		}
		t0 := time.Now()
		rd.readMany(ctx, w)
		if traced {
			rd.spans.addRead(spanReadMany, t0, t0, time.Now())
		}
		done++
		w = 3 - w
	}
	return done
}

// How late the open-loop generator may run before a run's latencies are
// marked invalid: 1 ms at its 90th percentile, and one scheduler quantum at
// its 99th. The tail cannot be held to 1 ms in-process: while a collector
// mark worker and a compute burst after an epoch commit hold both
// processors, a goroutine that becomes runnable waits until Go's scheduler
// preempts one of them, up to 10 ms. That holds for the generator waking
// from its sleep as it does for the engine's socket readers, so a request
// from outside would wait as long in the socket buffer; latencies are timed
// from the due instant, so the wait is charged to them, not hidden. The
// generator then catches up at once (consecutive late dispatches share one
// instant); an overloaded generator would instead fall behind without
// bound, which the 99th-percentile limit catches.
const (
	maxLateP90Ms = 1
	maxLateP99Ms = 10
)

// latSample is one open-loop transaction, timed from the instant it was due.
type latSample struct {
	meta       opMeta
	due        time.Time
	dispatched time.Time // the generator got to it; dispatched − due is its lateness
	submit     time.Time
	installed  time.Time // Submit returned: phase-1 acknowledgment
	done       time.Time // Await returned: functors computed
	version    tstamp.Timestamp
	committed  bool
	reason     string
	err        error
}

type readSample struct {
	due, start, end time.Time
	snapshot        bool
}

type latData struct {
	writes [][]latSample // per client
	reads  []readSample
}

// runner drives the clusters of one run, one at a time, with the same
// clients: client i submits to server i mod servers and continues the stream
// newStream(sp, seed, i) from cluster to cluster.
type runner struct {
	in      *instance
	ctx     context.Context
	origin  time.Time
	clients []*client
	rd      *reader
}

func newRunner(ctx context.Context, sp *spec, rc runConfig) (*runner, error) {
	r := &runner{ctx: ctx, origin: time.Now()}
	for i := 0; i < rc.clients; i++ {
		next, err := newStream(sp, rc.seed, i)
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, &client{next: next, spans: newSpanBuf(r.origin, i)})
	}
	if sp.reader {
		r.rd = &reader{
			rng:   rand.New(rand.NewSource(rc.seed*1000 + 999)),
			spans: newSpanBuf(r.origin, rc.clients),
		}
	}
	return r, nil
}

// attach points the clients at a freshly set-up cluster, with empty
// tallies: the checks compare a cluster against what it was sent.
func (r *runner) attach(in *instance) {
	r.in = in
	for i, cl := range r.clients {
		cl.fe, cl.t = in.cluster.Server(i%servers), newTally()
		cl.touched, cl.touches = cl.touched[:0], 0
	}
	if r.rd != nil {
		r.rd.fe = in.cluster.Server(0)
	}
}

// detach drops every reference to the attached cluster, so that the
// collector can free its stores.
func (r *runner) detach() {
	r.in = nil
	for _, cl := range r.clients {
		cl.fe = nil
	}
	if r.rd != nil {
		r.rd.fe = nil
	}
}

// tally adds up what the clients know about the transactions they sent to
// the attached cluster.
func (r *runner) tally() *tally {
	total := newTally()
	for _, cl := range r.clients {
		total.merge(cl.t)
	}
	return total
}

// source is one fixed-interval schedule of the open loop: a writer client
// or the reader.
type source struct {
	next     time.Time
	interval time.Duration
	left     int
	fire     func(due, now time.Time)
}

// waitUntil returns once due has come. It sleeps in the kernel rather
// than with time.Sleep: an idle Go scheduler waits in epoll, whose timeout
// has millisecond granularity, so a 100 µs time.Sleep takes about 1.1 ms,
// while nanosleep overshoots by tens of microseconds.
func waitUntil(due time.Time) time.Time {
	for {
		now := time.Now()
		wait := due.Sub(now)
		if wait <= 0 {
			return now
		}
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried by the loop
	}
}

// openLoop offers rate transactions per second for d, one Submit per
// transaction on a fixed schedule split evenly over the clients, and (on
// the mixed workload) latGetRate point reads and latReadManyRate snapshots
// per second. One goroutine keeps all the schedules; every operation runs
// on a goroutine of its own, so a slow one never delays the next. It
// returns once every operation has finished.
func (r *runner) openLoop(d time.Duration, rate int) *latData {
	data := &latData{writes: make([][]latSample, len(r.clients))}
	var inflight sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	var sources []*source
	interval := time.Duration(float64(time.Second) * float64(len(r.clients)) / float64(rate))
	for ci, cl := range r.clients {
		samples := make([]latSample, int(d/interval))
		data.writes[ci] = samples
		// Generated ahead of its due time, so generation is not charged to
		// the transaction's latency.
		pending, i := cl.next(), 0
		sources = append(sources, &source{
			next:     start.Add(interval * time.Duration(ci) / time.Duration(len(r.clients))),
			interval: interval,
			left:     len(samples),
			fire: func(due, now time.Time) {
				s, txn := &samples[i], pending.txn
				s.meta, s.due, s.dispatched = pending.opMeta, due, now
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					s.submit = time.Now()
					h, err := cl.fe.Submit(r.ctx, txn)
					s.installed = time.Now()
					if err != nil {
						s.err = err
						return
					}
					s.version = h.Version()
					s.committed, s.reason, s.err = h.Await(r.ctx)
					s.done = time.Now()
				}()
				pending, i = cl.next(), i+1
			},
		})
	}
	if r.rd != nil {
		interval := time.Second / latGetRate
		n := int(d / interval)
		every := latGetRate / latReadManyRate
		data.reads = make([]readSample, n+(n+every-1)/every)
		slot, i, w := 0, 0, 1
		take := func(due time.Time, snapshot bool) *readSample {
			s := &data.reads[slot]
			slot++
			s.due, s.snapshot = due, snapshot
			return s
		}
		sources = append(sources, &source{
			next:     start,
			interval: interval,
			left:     n,
			fire: func(due, _ time.Time) {
				s, k := take(due, false), r.rd.remoteKey()
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					s.start = time.Now()
					r.rd.get(r.ctx, k)
					s.end = time.Now()
				}()
				if i%every == 0 {
					s, sw := take(due, true), w
					w = 3 - w
					inflight.Add(1)
					go func() {
						defer inflight.Done()
						s.start = time.Now()
						r.rd.readMany(r.ctx, sw)
						s.end = time.Now()
					}()
				}
				i++
			},
		})
	}
	for r.ctx.Err() == nil {
		var first *source
		for _, src := range sources {
			if src.left > 0 && (first == nil || src.next.Before(first.next)) {
				first = src
			}
		}
		if first == nil {
			break
		}
		first.fire(first.next, waitUntil(first.next))
		first.next = first.next.Add(first.interval)
		first.left--
	}
	inflight.Wait()
	for ci, cl := range r.clients {
		for i := range data.writes[ci] {
			// Slots the schedule never reached (the run's deadline passed)
			// were not attempted.
			if s := &data.writes[ci][i]; !s.dispatched.IsZero() {
				cl.t.record(&s.meta, s.version, s.committed, s.reason, s.err)
			}
		}
	}
	return data
}

// satRep is one closed-loop repetition. Its clock stops once the last
// epoch it wrote in has committed and the processors' queues have drained,
// so the rate means fully computed transactions per second.
type satRep struct {
	committed uint64
	reads     uint64        // the closed-loop reader's completions
	elapsed   time.Duration // first submit → settled
	cpu       time.Duration // process user+sys time over elapsed
	drain     time.Duration // the settling at the end of elapsed
	failure   string
}

func (rep satRep) txnPerS() float64 { return ratio(float64(rep.committed), rep.elapsed.Seconds()) }

// sumReps adds up the repetitions. Rates over the sat
// repetitions are all the work over all the time, not the median
// repetition: the host's memory speed wanders over tens of seconds (a
// pointer chase with no engine in the process varies by a fifth between
// 10 s windows), and of the statistics of eight consecutive readings of such
// a walk the mean repeats best.
func sumReps(reps []satRep) (sum satRep) {
	for _, rep := range reps {
		sum.committed += rep.committed
		sum.reads += rep.reads
		sum.elapsed += rep.elapsed
		sum.cpu += rep.cpu
		sum.drain += rep.drain
	}
	return sum
}

func (r *runner) committed() (n uint64) {
	for _, cl := range r.clients {
		n += cl.t.committed
	}
	return n
}

func (r *runner) lastEpoch() (e tstamp.Epoch) {
	for _, cl := range r.clients {
		e = max(e, cl.t.lastEpoch)
	}
	return e
}

// closedLoop submits the transactions rate would bring in d, as batches of
// satBatch shared among the clients, as fast as the cluster acknowledges
// their installs.
func (r *runner) closedLoop(d time.Duration, rate int, traced bool) satRep {
	var batches atomic.Int64
	batches.Store(int64(d.Seconds()*float64(rate))/satBatch + 1)
	var stopReader atomic.Bool
	var writers, readers sync.WaitGroup
	var reads uint64
	before, cpu := r.committed(), cpuTime()
	start := time.Now()
	for _, cl := range r.clients {
		writers.Add(1)
		go func(cl *client) {
			defer writers.Done()
			cl.closedLoop(r.ctx, &batches, traced)
		}(cl)
	}
	if r.rd != nil {
		readers.Add(1)
		go func() {
			defer readers.Done()
			reads = r.rd.closedLoop(r.ctx, &stopReader, traced)
		}()
	}
	writers.Wait()
	stopReader.Store(true)
	readers.Wait()
	drainStart := time.Now()
	var rep satRep
	if err := settle(r.ctx, r.in.cluster, r.lastEpoch()); err != nil {
		rep.failure = err.Error()
	}
	end := time.Now()
	rep.committed, rep.reads = r.committed()-before, reads
	rep.elapsed, rep.drain, rep.cpu = end.Sub(start), end.Sub(drainStart), cpuTime()-cpu
	return rep
}

// heapSampler tracks the maximum heap in use (runtime HeapInuse: bytes in
// in-use spans) without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	sample := func() {
		rtmetrics.Read(samples)
		if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			sample()
			select {
			case <-tick.C:
			case <-h.stop:
				sample()
				return
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run is what one workload run keeps across its clusters.
type run struct {
	sp       *spec
	rc       runConfig
	ctx      context.Context
	r        *runner
	walRoot  string
	clusters int
	host     *hostRef
	setupS   []float64 // one sample per cluster
	total    *tally    // every cluster's tally, merged once the cluster is checked
	ck       *checker
	layers   layerInputs
}

// onCluster sets up a fresh cluster (timed: one setup_s sample), attaches
// the clients, lets drive load it, waits until it has settled, checks it
// against what it was sent and closes it. With recovered, the recovery check
// runs on its log after the close.
func (rn *run) onCluster(recovered bool, drive func()) error {
	dir := filepath.Join(rn.walRoot, fmt.Sprint(rn.clusters))
	rn.clusters++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Read while nothing else runs: the previous cluster is closed and
	// collected.
	rn.host.sample(rn.rc.hostLoads)

	// A setup ends when the first epoch after Start has committed on every
	// server: the cluster has shown that it can commit. (Ending at Start
	// would leave ycsb-hot, which preloads nothing, a setup of 0.1 ms that
	// reads as timer noise.)
	start := time.Now()
	in, err := build(rn.sp, dir)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	// The next cluster starts from a collected heap: this one's stores are
	// freed here, not during the next one's measurement.
	defer runtime.GC()
	defer rn.r.detach()
	defer in.close()
	if err := settle(rn.ctx, in.cluster, in.cluster.CurrentEpoch()-1); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	rn.setupS = append(rn.setupS, time.Since(start).Seconds())

	rn.r.attach(in)
	drive()
	sent := rn.r.tally()
	err = settle(rn.ctx, in.cluster, sent.lastEpoch)
	rn.ck.expect(err == nil, "cluster %d: %v", rn.clusters, err)
	if rn.rc.trace {
		rn.layers.chains = append(rn.layers.chains, chainLengths(rn.r)...)
		rn.layers.keys = storeKeys(in)
	}
	var state tpccState
	if rn.sp.ycsb {
		checkYCSB(in.cluster, sent, rn.ck)
	} else {
		state = checkTPCC(rn.ctx, in.cluster, sent, rn.sp.mix, rn.ck)
	}
	rn.total.merge(sent)
	if recovered && state != nil {
		if err := in.close(); err != nil {
			rn.ck.expect(false, "clean close: %v", err)
		} else {
			rn.layers.recovery = checkRecovery(rn.ctx, dir, state, rn.ck)
		}
	}
	return nil
}

// runWorkload runs sp once and reports its metrics and check outcomes. An
// error means the run could not be carried out at all; failed operations
// and failed checks are reported in the result.
func runWorkload(sp *spec, rc runConfig) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	if err := os.MkdirAll(rc.tmpDir, 0o755); err != nil {
		return nil, err
	}
	walRoot, err := os.MkdirTemp(rc.tmpDir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)
	r, err := newRunner(ctx, sp, rc)
	if err != nil {
		return nil, err
	}
	host, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer host.close()
	rn := &run{sp: sp, rc: rc, ctx: ctx, r: r, walRoot: walRoot, host: host, total: newTally(), ck: &checker{}}

	var wall string
	phaseStart := time.Now()
	phaseDone := func(name string) {
		wall += fmt.Sprintf("%s %.1f ", name, time.Since(phaseStart).Seconds())
		phaseStart = time.Now()
	}

	// Lat stage. heap_peak_mb is sampled over it and not over the sat
	// repetitions: it then covers a fixed amount of offered work, where
	// across closed-loop work it would grow with throughput and report a
	// faster engine as a regression. A durable workload's recovery check
	// replays this cluster's log, for the same reason: a fixed amount of
	// work makes wal.recover_s comparable between commits.
	var lat *latData
	var heapPeak float64
	err = rn.onCluster(sp.durable, func() {
		heap := startHeapSampler(100 * time.Millisecond)
		r.openLoop(rc.warm, sp.latRate)
		lat = r.openLoop(rc.lat, sp.latRate)
		heapPeak = heap.stopMB()
	})
	if err != nil {
		return nil, err
	}
	phaseDone("lat")

	reps := make([]satRep, rc.satReps)
	for i := range reps {
		err := rn.onCluster(false, func() {
			r.closedLoop(rc.satWarm, sp.satRate, false)
			var before snapshot
			if rc.trace {
				before = takeSnapshot(r.in)
			}
			// Traced runs trace every other repetition, for untraced
			// neighbours to measure the tracing overhead against.
			reps[i] = r.closedLoop(rc.satRep, sp.satRate, rc.trace && i%2 == 1)
			if rc.trace {
				rn.layers.deltas = append(rn.layers.deltas, delta{before, takeSnapshot(r.in)})
			}
		})
		if err != nil {
			return nil, err
		}
		rn.ck.expect(reps[i].failure == "", "sat repetition %d: %s", i, reps[i].failure)
	}
	phaseDone("sat")

	total, ck := rn.total, rn.ck
	res := &result{Workload: sp.name, Seed: rc.seed, Trace: rc.trace, Describe: sp.describe(), WallS: wall}
	res.Attempted = total.attempted + ck.checks
	res.Failed = total.failed + ck.failed
	if total.firstFail != "" {
		res.Failures = append(res.Failures, total.firstFail)
	}
	res.Failures = append(res.Failures, ck.messages...)
	if r.rd != nil {
		res.Attempted += r.rd.attempted.Load()
		res.Failed += r.rd.failed.Load()
		if r.rd.firstFail != "" {
			res.Failures = append(res.Failures, r.rd.firstFail)
		}
		if r.rd.snapshots.Load() == 0 {
			res.Failed++
			res.Failures = append(res.Failures, "no ReadMany snapshot completed, epoch-atomic visibility unchecked")
		}
	}
	res.Correct = res.Failed == 0

	// Run-level timings, measured on every run.
	ms := map[string]metric{}
	rates, readRates := make([]float64, len(reps)), make([]float64, len(reps))
	for i, rep := range reps {
		rates[i] = rep.txnPerS()
		readRates[i] = ratio(float64(rep.reads), rep.elapsed.Seconds())
	}
	sat := sumReps(reps)
	lo, hi := minMax(rates)
	ms["txn_per_s"] = metric{Value: sat.txnPerS(), Unit: "1/s", N: len(rates), Min: lo, Max: hi}
	// Throughput against the host's speed at the time: transactions per the
	// time a million cache-missing loads take. This is the gated form;
	// txn_per_s is what this host did in these seconds.
	ms["host.load_ns"] = metric{Value: host.loadNs(), Unit: "ns", N: host.loads}
	ms["txn_per_mload"] = metric{Value: sat.txnPerS() * host.loadNs() / 1e3, Unit: "count", N: len(rates)}
	ms["cpu_us_per_txn"] = metric{Value: ratio(float64(sat.cpu.Microseconds()), float64(sat.committed)), Unit: "us", N: int(sat.committed)}
	lo, hi = minMax(readRates)
	ms["reads_per_s"] = metric{Value: ratio(float64(sat.reads), sat.elapsed.Seconds()), Unit: "1/s", N: len(readRates), Min: lo, Max: hi}
	ms["abort_share"] = metric{Value: ratio(float64(total.aborted), float64(total.attempted)), Unit: "share", N: int(total.attempted)}
	var install, commit, late, get, snap []float64
	for _, samples := range lat.writes {
		for i := range samples {
			s := &samples[i]
			if s.dispatched.IsZero() {
				continue
			}
			late = append(late, s.dispatched.Sub(s.due).Seconds()*1e3)
			if s.err != nil {
				continue
			}
			install = append(install, float64(s.installed.Sub(s.due).Nanoseconds())/1e3)
			if s.committed {
				commit = append(commit, s.done.Sub(s.due).Seconds()*1e3)
			}
		}
	}
	for i := range lat.reads {
		s := &lat.reads[i]
		switch {
		case s.end.IsZero():
		case s.snapshot:
			snap = append(snap, s.end.Sub(s.due).Seconds()*1e3)
		default:
			get = append(get, float64(s.end.Sub(s.due).Nanoseconds())/1e3)
		}
	}
	for _, vs := range [][]float64{install, commit, late, get, snap} {
		sort.Float64s(vs)
	}
	ms["install_p50_us"] = pctlMetric(install, 0.50, "us")
	ms["install_p99_us"] = pctlMetric(install, 0.99, "us")
	ms["commit_p50_ms"] = pctlMetric(commit, 0.50, "ms")
	ms["commit_p90_ms"] = pctlMetric(commit, 0.90, "ms")
	ms["commit_p99_ms"] = pctlMetric(commit, 0.99, "ms")
	ms["read_p50_us"] = pctlMetric(get, 0.50, "us")
	ms["read_p99_us"] = pctlMetric(get, 0.99, "us")
	ms["snap_read_p50_ms"] = pctlMetric(snap, 0.50, "ms")
	ms["heap_peak_mb"] = metric{Value: heapPeak, Unit: "MB", N: 1}
	lo, hi = minMax(rn.setupS)
	ms["setup_s"] = metric{Value: median(rn.setupS), Unit: "s", N: len(rn.setupS), Min: lo, Max: hi}
	ms["bench.gen_late_p90_ms"] = pctlMetric(late, 0.90, "ms")
	ms["bench.gen_late_p99_ms"] = pctlMetric(late, 0.99, "ms")
	res.Valid = ms["bench.gen_late_p90_ms"].Value <= maxLateP90Ms && ms["bench.gen_late_p99_ms"].Value <= maxLateP99Ms
	res.Metrics, res.SatReps = ms, rates

	if rc.trace {
		rn.layers.reps, rn.layers.sat = reps, sat
		perLayerMetrics(r, &rn.layers, ms)
		bufs := make([]*spanBuf, 0, len(r.clients)+2)
		for _, cl := range r.clients {
			bufs = append(bufs, cl.spans)
		}
		if r.rd != nil {
			bufs = append(bufs, r.rd.spans)
		}
		bufs = append(bufs, latSpans(r.origin, lat))
		res.SpanFile = filepath.Join(rc.tmpDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", sp.name, rc.seed))
		if res.Spans, err = writeSpans(res.SpanFile, bufs, ms); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// pctlMetric reports the q-quantile of sorted, or the highest quantile
// with at least minTail samples beyond it.
func pctlMetric(sorted []float64, q float64, unit string) metric {
	v, used := percentile(sorted, q)
	m := metric{Value: v, Unit: unit, N: len(sorted)}
	if used != q {
		m.Note = fmt.Sprintf("p%.4g reported: too few samples beyond p%.4g", used*100, q*100)
	}
	return m
}

// latSpans derives the lat phase's spans from its samples: bench.txn (due
// → Await returned) → core.coordinator.submit → core.handle.await, and
// bench.read → the read call.
func latSpans(origin time.Time, lat *latData) *spanBuf {
	buf := newSpanBuf(origin, 1<<14)
	for _, samples := range lat.writes {
		for i := range samples {
			s := &samples[i]
			if s.err != nil || s.done.IsZero() {
				continue
			}
			root := buf.add(0, spanTxn, s.due, s.done, 0)
			buf.add(root, spanSubmit, s.submit, s.installed, 0)
			buf.add(root, spanAwait, s.installed, s.done, 0)
		}
	}
	for i := range lat.reads {
		s := &lat.reads[i]
		if s.end.IsZero() {
			continue
		}
		name := spanGetCommitted
		if s.snapshot {
			name = spanReadMany
		}
		buf.addRead(name, s.due, s.start, s.end)
	}
	return buf
}
