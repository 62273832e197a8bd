package main

import (
	"runtime"
	"sort"

	"alohadb/internal/core"
	"alohadb/internal/epoch"
	"alohadb/internal/metrics"
	"alohadb/internal/transport"
	"alohadb/internal/wal"
)

// codecSampling is the 1-in-N subsampling of the transport's codec
// encode/decode histograms (transport.FamCodecEncodeSeconds).
const codecSampling = 64

// snapshot is the engine's public counters at one instant.
type snapshot struct {
	stats    core.Stats
	fams     map[string]metrics.Family
	switches int
	mem      runtime.MemStats
	msgs     uint64
	writes   uint64
	gob      uint64
}

func takeSnapshot(in *instance) snapshot {
	s := snapshot{stats: in.cluster.Stats(), fams: map[string]metrics.Family{}}
	for _, f := range in.cluster.Metrics() {
		s.fams[f.Name] = f
	}
	s.switches, _ = in.cluster.EpochManager().SwitchStats()
	if inst, ok := in.net.(transport.Instrumented); ok {
		m := inst.NetMetrics()
		s.msgs, s.writes, s.gob = m.MsgsSent(), m.SocketWrites(), m.GobFallbacks()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// delta is one sat repetition seen through the engine's counters.
type delta struct{ before, after snapshot }

// hist is what family name observed over the repetitions, merged over its
// series.
func hist(ds []delta, name string) (sum metrics.HistogramSnapshot) {
	for _, d := range ds {
		a, b := d.after.fams[name].TotalHist(), d.before.fams[name].TotalHist()
		if len(a.Counts) == len(b.Counts) { // else absent before
			a = a.Clone()
			for i := range a.Counts {
				a.Counts[i] -= b.Counts[i]
			}
			a.Sum -= b.Sum
			a.Count -= b.Count
		}
		if sum.Counts == nil {
			sum = a.Clone()
		} else {
			sum.Merge(a)
		}
	}
	return sum
}

// sumOver adds up f(after) − f(before) over the repetitions.
func sumOver(ds []delta, f func(snapshot) float64) (sum float64) {
	for _, d := range ds {
		sum += f(d.after) - f(d.before)
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerInputs is what a traced run hands to perLayerMetrics.
type layerInputs struct {
	deltas   []delta  // one per sat repetition
	reps     []satRep // odd ones traced
	sat      satRep   // the repetitions summed
	chains   []int    // lengths of the chains of sampled write keys, at the end of each traced repetition
	keys     int      // keys in the last cluster's stores
	recovery recovery
}

// chainLengths returns the version-chain length of each sampled write key.
func chainLengths(r *runner) []int {
	var lens []int
	c := r.in.cluster
	for _, cl := range r.clients {
		for _, k := range cl.touched {
			lens = append(lens, len(c.Server(c.Server(0).Owner(k)).Store().View(k)))
		}
	}
	return lens
}

func storeKeys(in *instance) (n int) {
	for i := 0; i < in.cluster.NumServers(); i++ {
		n += in.cluster.Server(i).Store().Len()
	}
	return n
}

// perLayerMetrics adds the traced run's per-layer rows to ms: deltas of
// the engine's public counter snapshots over the sat repetitions, and
// spans recorded by the benchmark.
func perLayerMetrics(r *runner, in *layerInputs, ms map[string]metric) {
	txns := float64(in.sat.committed)
	nTxns := int(in.sat.committed)
	set := func(name, unit string, v float64, n int) { ms[name] = metric{Value: v, Unit: unit, N: n} }
	stat := func(f func(core.Stats) float64) float64 {
		return sumOver(in.deltas, func(s snapshot) float64 { return f(s.stats) })
	}
	mem := func(f func(*runtime.MemStats) uint64) float64 {
		return sumOver(in.deltas, func(s snapshot) float64 { return float64(f(&s.mem)) })
	}
	counter := func(name string) float64 {
		return sumOver(in.deltas, func(s snapshot) float64 { return s.fams[name].Total() })
	}

	// Coordinator: spans around SubmitBatch in the traced repetitions.
	var submit []float64
	for _, cl := range r.clients {
		for _, s := range cl.spans.spans {
			if s.Name == spanSubmit {
				submit = append(submit, float64(s.End-s.Start)/1e3)
			}
		}
	}
	sort.Float64s(submit)
	ms["core.coordinator.submit_us_p50"] = pctlMetric(submit, 0.50, "us")
	ms["core.coordinator.submit_us_p99"] = pctlMetric(submit, 0.99, "us")
	installed := stat(func(s core.Stats) float64 { return float64(s.TxnsCommitted + s.TxnsAborted) })
	set("core.coordinator.install_us_per_txn", "us",
		ratio(stat(func(s core.Stats) float64 { return float64(s.InstallTime.Microseconds()) }), installed), int(installed))

	// Processor.
	wait := hist(in.deltas, core.FamStageWait)
	set("core.processor.wait_ms_p50", "ms", float64(wait.Quantile(0.5))/1e6, int(wait.Count))
	computed := stat(func(s core.Stats) float64 { return float64(s.FunctorsComputed) })
	computeCount := stat(func(s core.Stats) float64 { return float64(s.ComputeCount) })
	set("core.processor.compute_us_per_functor", "us",
		ratio(stat(func(s core.Stats) float64 { return float64(s.ComputeTime.Nanoseconds()) })/1e3, computeCount), int(computeCount))
	set("core.processor.functors_per_txn", "count", ratio(computed, txns), nTxns)
	set("core.processor.on_demand_share", "share", ratio(stat(func(s core.Stats) float64 { return float64(s.OnDemandComputes) }), computed), int(computed))
	set("core.processor.drain_s", "s", ratio(in.sat.drain.Seconds(), float64(len(in.reps))), len(in.reps))

	// Combiner.
	remote := stat(func(s core.Stats) float64 { return float64(s.RemoteReads) })
	hits := stat(func(s core.Stats) float64 { return float64(s.PushHits) })
	rpcs := stat(func(s core.Stats) float64 { return float64(s.ReadBatches) })
	set("core.combiner.reads_per_rpc", "count", ratio(stat(func(s core.Stats) float64 { return float64(s.BatchedReads) }), rpcs), int(rpcs))
	set("core.combiner.remote_reads_per_txn", "count", ratio(remote, txns), nTxns)
	set("core.combiner.push_hit_share", "share", ratio(hits, hits+remote), int(hits+remote))

	// Epoch manager.
	sw := hist(in.deltas, epoch.FamSwitch)
	switches := sumOver(in.deltas, func(s snapshot) float64 { return float64(s.switches) })
	set("epoch.switch_ms_p50", "ms", float64(sw.Quantile(0.5))/1e6, int(sw.Count))
	set("epoch.switch_ms_p99", "ms", float64(sw.Quantile(0.99))/1e6, int(sw.Count))
	set("epoch.txns_per_epoch", "count", ratio(float64(hist(in.deltas, core.FamEpochTxns).Sum), switches), int(switches))
	set("epoch.switches", "count", switches, int(switches))

	// Transport and wire codec.
	set("transport.msgs_per_txn", "count", ratio(sumOver(in.deltas, func(s snapshot) float64 { return float64(s.msgs) }), txns), nTxns)
	set("transport.bytes_per_txn", "B", ratio(counter(transport.FamBytesSent), txns), nTxns)
	set("transport.socket_writes_per_txn", "count", ratio(sumOver(in.deltas, func(s snapshot) float64 { return float64(s.writes) }), txns), nTxns)
	flush := hist(in.deltas, transport.FamEnvelopesPerFlush)
	set("transport.envelopes_per_flush", "count", ratio(float64(flush.Sum), float64(flush.Count)), int(flush.Count))
	call := hist(in.deltas, transport.FamCallLatency)
	set("transport.call_us_p50", "us", float64(call.Quantile(0.5))/1e3, int(call.Count))
	enc := hist(in.deltas, transport.FamCodecEncodeSeconds)
	dec := hist(in.deltas, transport.FamCodecDecodeSeconds)
	set("wire.encode_us_per_txn", "us", ratio(float64(enc.Sum)*codecSampling/1e3, txns), int(enc.Count))
	set("wire.decode_us_per_txn", "us", ratio(float64(dec.Sum)*codecSampling/1e3, txns), int(dec.Count))
	set("wire.gob_fallbacks", "count", sumOver(in.deltas, func(s snapshot) float64 { return float64(s.gob) }), 1)

	// WAL (absent families on non-durable workloads give zeros). The
	// recovery rows are the lat stage's log after its clean close.
	appendBytes := hist(in.deltas, wal.FamAppendBytes)
	fsync := hist(in.deltas, wal.FamFsync)
	set("wal.append_bytes_per_txn", "B", ratio(float64(appendBytes.Sum), txns), int(appendBytes.Count))
	set("wal.fsyncs_per_epoch", "count", ratio(float64(fsync.Count), switches), int(switches))
	set("wal.fsync_ms_p50", "ms", float64(fsync.Quantile(0.5))/1e6, int(fsync.Count))
	set("wal.fsync_ms_p99", "ms", float64(fsync.Quantile(0.99))/1e6, int(fsync.Count))
	set("wal.replay_ns_per_entry", "ns", in.recovery.replayNsPerEntry, in.recovery.entries)
	set("wal.recover_s", "s", in.recovery.recoverS, 1)

	// Multi-version store.
	sort.Ints(in.chains)
	var chainP50, chainMax float64
	if n := len(in.chains); n > 0 {
		chainP50, chainMax = float64(in.chains[n/2]), float64(in.chains[n-1])
	}
	set("mvstore.chain_len_p50", "count", chainP50, len(in.chains))
	set("mvstore.chain_len_max", "count", chainMax, len(in.chains))
	set("mvstore.versions_compacted_per_s", "1/s",
		ratio(stat(func(s core.Stats) float64 { return float64(s.VersionsCompacted) }), in.sat.elapsed.Seconds()), 1)
	set("mvstore.keys", "count", float64(in.keys), 1)

	// Go runtime over the sat repetitions.
	cycles := mem(func(m *runtime.MemStats) uint64 { return uint64(m.NumGC) })
	set("runtime.allocs_per_txn", "count", ratio(mem(func(m *runtime.MemStats) uint64 { return m.Mallocs }), txns), nTxns)
	set("runtime.alloc_bytes_per_txn", "B", ratio(mem(func(m *runtime.MemStats) uint64 { return m.TotalAlloc }), txns), nTxns)
	set("runtime.gc_pause_ms_total", "ms", mem(func(m *runtime.MemStats) uint64 { return m.PauseTotalNs })/1e6, int(cycles))
	set("runtime.gc_cycles", "count", cycles, 1)

	// The benchmark itself.
	var selfNs, selfOps int64
	for _, cl := range r.clients {
		selfNs += cl.selfNs
		selfOps += cl.selfOps
	}
	genUs := ratio(float64(selfNs)/1e3, float64(selfOps))
	set("bench.gen_us_per_txn", "us", genUs, int(selfOps))
	set("bench.gen_cpu_share", "share", ratio(genUs, ms["cpu_us_per_txn"].Value), int(selfOps))
	var traced, untraced []float64
	for i, rep := range in.reps {
		if i%2 == 1 {
			traced = append(traced, rep.txnPerS())
		} else {
			untraced = append(untraced, rep.txnPerS())
		}
	}
	set("bench.trace_overhead_share", "share", 1-ratio(median(traced), median(untraced)), len(in.reps))
}
