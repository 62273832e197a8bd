package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/epoch"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
	"alohadb/internal/wal"
	"alohadb/internal/wire"
	"alohadb/internal/workload/tpcc"
)

// Probes time the layers' public functions directly: one goroutine, fixed
// iteration counts, inputs from the workloads' seeded generators. They
// isolate a layer from the queueing and scheduling of a full run; a probe
// moving without its end-to-end row moving is not a gain.

const probeBatches = 5 // each probe reports the median of this many batches

// reading is one probe batch's value for one metric. allocs < 0 means the
// metric has no allocation count (sizes, timer- or socket-bound calls).
type reading struct {
	name   string
	unit   string
	value  float64
	allocs float64
}

// probe runs one batch at the given scale (1 = full iteration counts;
// tests pass a small fraction) and returns its readings.
type probe struct {
	name string
	run  func(p *probeEnv) ([]reading, error)
}

type probeEnv struct {
	scale  float64
	tmpDir string
	orders []core.Txn // NewOrders from the neworder workloads' generator
}

func (p *probeEnv) n(full int) int { return max(1, int(float64(full)*p.scale)) }

// timed runs f, which performs n operations, and returns ns and heap
// allocations per operation.
func timed(n int, f func()) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

var sink any // keeps probed results alive so calls are not optimised away

func probeKeys(n int) []kv.Key {
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("p:%d", i))
	}
	return keys
}

// hotChain builds one key holding versions sealed records, written as
// epochs of 64 installs each.
func hotChain(versions int) (*mvstore.Store, []tstamp.Timestamp, tstamp.Epoch, error) {
	s := mvstore.New()
	add := functor.Add(1)
	var all []tstamp.Timestamp
	e := tstamp.Epoch(1)
	for len(all) < versions {
		for seq := uint32(1); seq <= 64 && len(all) < versions; seq++ {
			ts := tstamp.Make(e, seq, 0)
			if _, err := s.Put("hot", ts, add); err != nil {
				return nil, nil, 0, err
			}
			all = append(all, ts)
		}
		s.Seal("hot", tstamp.End(e))
		e++
	}
	return s, all, e, nil
}

var probes = []probe{
	{"mvstore.put", func(p *probeEnv) ([]reading, error) {
		n := p.n(100_000)
		keys, s, add := probeKeys(n), mvstore.New(), functor.Add(1)
		var err error
		ns, allocs := timed(n, func() {
			for i, k := range keys {
				if _, e := s.Put(k, tstamp.Make(1, uint32(i+1), 0), add); e != nil {
					err = e
				}
			}
		})
		return []reading{{"mvstore.put_ns", "ns", ns, allocs}}, err
	}},
	{"mvstore.hot", func(p *probeEnv) ([]reading, error) {
		s, versions, e, err := hotChain(10_000)
		if err != nil {
			return nil, err
		}
		add := functor.Add(1)
		n := p.n(6_400)
		putNs, putAllocs := timed(n, func() {
			for i := 0; i < n; i++ {
				if _, perr := s.Put("hot", tstamp.Make(e, uint32(i%64+1), 0), add); perr != nil {
					err = perr
				}
				if i%64 == 63 {
					s.Seal("hot", tstamp.End(e))
					e++
				}
			}
		})
		n = p.n(200_000)
		latestNs, latestAllocs := timed(n, func() {
			for i := 0; i < n; i++ {
				sink, _ = s.Latest("hot", versions[(i*7919)%len(versions)])
			}
		})
		return []reading{
			{"mvstore.put_hot_ns", "ns", putNs, putAllocs},
			{"mvstore.latest_hot_ns", "ns", latestNs, latestAllocs},
		}, err
	}},
	{"mvstore.latest", func(p *probeEnv) ([]reading, error) {
		keys, s, add := probeKeys(10_000), mvstore.New(), functor.Add(1)
		for e := tstamp.Epoch(1); e <= 3; e++ {
			for i, k := range keys {
				if _, err := s.Put(k, tstamp.Make(e, uint32(i+1), 0), add); err != nil {
					return nil, err
				}
			}
			s.SealAll(tstamp.End(e))
		}
		n := p.n(200_000)
		ns, allocs := timed(n, func() {
			for i := 0; i < n; i++ {
				sink, _ = s.Latest(keys[(i*7919)%len(keys)], tstamp.Max)
			}
		})
		return []reading{{"mvstore.latest_ns", "ns", ns, allocs}}, nil
	}},
	{"mvstore.seal_all", func(p *probeEnv) ([]reading, error) {
		n := p.n(50_000)
		keys, s, add := probeKeys(n), mvstore.New(), functor.Add(1)
		for i, k := range keys {
			if _, err := s.Put(k, tstamp.Make(1, uint32(i+1), 0), add); err != nil {
				return nil, err
			}
		}
		ns, allocs := timed(n, func() { s.SealAll(tstamp.End(1)) })
		return []reading{{"mvstore.seal_all_ns_per_key", "ns", ns, allocs}}, nil
	}},
	{"mvstore.compact", func(p *probeEnv) ([]reading, error) {
		const perKey = 10
		keys, s := probeKeys(p.n(5_000)), mvstore.New()
		val := functor.ValueResolution(kv.EncodeInt64(1))
		for i, k := range keys {
			for v := 0; v < perKey; v++ {
				rec, err := s.Put(k, tstamp.Make(1, uint32(i*perKey+v+1), 0), functor.Add(1))
				if err != nil {
					return nil, err
				}
				rec.Resolve(val)
			}
			s.Seal(k, tstamp.End(1))
			s.AdvanceWatermark(k, tstamp.End(1))
		}
		removed := 0
		ns, allocs := timed(len(keys)*(perKey-1), func() { removed = s.Compact(tstamp.End(1)) })
		if want := len(keys) * (perKey - 1); removed != want {
			return nil, fmt.Errorf("compact removed %d versions, want %d", removed, want)
		}
		return []reading{{"mvstore.compact_ns_per_version", "ns", ns, allocs}}, nil
	}},
	{"functor.eval_add", func(p *probeEnv) ([]reading, error) {
		n := p.n(1_000_000)
		arg, prev := kv.EncodeInt64(1), functor.Read{Value: kv.EncodeInt64(41), Found: true}
		var err error
		ns, allocs := timed(n, func() {
			for i := 0; i < n; i++ {
				if sink, err = functor.EvalArithmetic(functor.TypeAdd, arg, prev); err != nil {
					return
				}
			}
		})
		return []reading{{"functor.eval_add_ns", "ns", ns, allocs}}, err
	}},
	{"functor.handlers", func(p *probeEnv) ([]reading, error) {
		reg := functor.NewRegistry()
		tpcc.RegisterAlohaHandlers(reg)
		// One prepared Context per generated NewOrder: the determinate
		// next-order-id functor and its first stock functor.
		var orderCtx, stockCtx []*functor.Context
		for i, txn := range p.orders {
			ts := tstamp.Make(1, uint32(i+1), 0)
			w := txn.Writes[0]
			reads := map[kv.Key]functor.Read{w.Key: {Value: kv.EncodeInt64(int64(i)), Found: true}}
			for _, k := range w.Functor.ReadSet {
				reads[k] = functor.Read{Value: kv.EncodeInt64(100), Found: true}
			}
			orderCtx = append(orderCtx, &functor.Context{Key: w.Key, Version: ts, Arg: w.Functor.Arg, Reads: reads})
			sw := txn.Writes[1]
			stockCtx = append(stockCtx, &functor.Context{Key: sw.Key, Version: ts, Arg: sw.Functor.Arg,
				Reads: map[kv.Key]functor.Read{sw.Key: {Value: tpcc.Stock{Quantity: 50}.Encode(), Found: true}}})
		}
		var err error
		run := func(name string, ctxs []*functor.Context, n int) (float64, float64) {
			return timed(n, func() {
				for i := 0; i < n; i++ {
					h, ok := reg.Lookup(name)
					if !ok {
						err = fmt.Errorf("handler %s not registered", name)
						return
					}
					if sink, err = h(ctxs[i%len(ctxs)]); err != nil {
						return
					}
				}
			})
		}
		orderNs, orderAllocs := run(tpcc.ProcNewOrder, orderCtx, p.n(50_000))
		stockNs, stockAllocs := run(tpcc.ProcStock, stockCtx, p.n(200_000))
		return []reading{
			{"functor.neworder_handler_ns", "ns", orderNs, orderAllocs},
			{"functor.stock_handler_ns", "ns", stockNs, stockAllocs},
		}, err
	}},
	{"functor.codec", func(p *probeEnv) ([]reading, error) {
		n := p.n(200_000)
		fns := make([]*functor.Functor, len(p.orders))
		encoded := make([][]byte, len(p.orders))
		for i, txn := range p.orders {
			fns[i] = txn.Writes[0].Functor
			encoded[i] = functor.AppendFunctor(nil, fns[i])
		}
		buf := make([]byte, 0, 1024)
		appendNs, appendAllocs := timed(n, func() {
			for i := 0; i < n; i++ {
				buf = functor.AppendFunctor(buf[:0], fns[i%len(fns)])
			}
		})
		var err error
		decodeNs, decodeAllocs := timed(n, func() {
			for i := 0; i < n; i++ {
				if sink, _, err = functor.DecodeFunctor(encoded[i%len(encoded)]); err != nil {
					return
				}
			}
		})
		return []reading{
			{"functor.append_ns", "ns", appendNs, appendAllocs},
			{"functor.decode_ns", "ns", decodeNs, decodeAllocs},
		}, err
	}},
	{"wire.install", func(p *probeEnv) ([]reading, error) {
		core.RegisterMessages()
		// One MsgInstall carrying satBatch NewOrders, as a sat-phase batch does.
		var msg core.MsgInstall
		for i, txn := range p.orders[:satBatch] {
			msg.Txns = append(msg.Txns, core.InstallTxn{
				Version: tstamp.Make(1, uint32(i+1), 0), Writes: txn.Writes, Requires: txn.Requires,
			})
		}
		env := &wire.Envelope{ID: 1, Kind: 1, Msg: msg}
		frame, gob, err := wire.AppendEnvelope(nil, env)
		if err != nil || gob {
			return nil, fmt.Errorf("encode MsgInstall: gob fallback %v, err %v", gob, err)
		}
		n := p.n(20_000)
		buf := make([]byte, 0, len(frame))
		encNs, encAllocs := timed(n, func() {
			for i := 0; i < n; i++ {
				buf, _, _ = wire.AppendEnvelope(buf[:0], env)
			}
		})
		decNs, decAllocs := timed(n, func() {
			for i := 0; i < n; i++ {
				if sink, err = wire.DecodeEnvelope(frame[wire.FrameLenSize:]); err != nil {
					return
				}
			}
		})
		return []reading{
			{"wire.encode_install_ns", "ns", encNs, encAllocs},
			{"wire.decode_install_ns", "ns", decNs, decAllocs},
			{"wire.install_bytes", "B", float64(len(frame)), -1},
		}, err
	}},
	{"transport.call", func(p *probeEnv) ([]reading, error) {
		core.RegisterMessages()
		echo := func(context.Context, transport.NodeID, any) (any, error) { return core.MsgWaitComputedResp{}, nil }
		call := func(net transport.Network, n int) (float64, error) {
			defer net.Close()
			var conns [2]transport.Conn
			for id := range conns {
				c, err := net.Node(transport.NodeID(id), echo)
				if err != nil {
					return 0, err
				}
				conns[id] = c
			}
			ctx, req := context.Background(), core.MsgWaitComputed{Key: "k", Version: tstamp.Make(1, 1, 0)}
			if _, err := conns[0].Call(ctx, 1, req); err != nil { // dial outside the clock
				return 0, err
			}
			var err error
			ns, _ := timed(n, func() {
				for i := 0; i < n; i++ {
					if _, err = conns[0].Call(ctx, 1, req); err != nil {
						return
					}
				}
			})
			return ns / 1e3, err
		}
		mem, err := call(transport.NewMemNetwork(transport.WithLatency(memLatency, memJitter)), p.n(400))
		if err != nil {
			return nil, err
		}
		tcp, err := call(transport.NewTCPNetwork(map[transport.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}), p.n(4_000))
		return []reading{
			{"transport.mem_call_us", "us", mem, -1}, // includes the injected delay both ways
			{"transport.tcp_call_us", "us", tcp, -1},
		}, err
	}},
	{"wal", func(p *probeEnv) ([]reading, error) {
		dir, err := os.MkdirTemp(p.tmpDir, "probe-wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		log, err := wal.Open(filepath.Join(dir, "probe.wal"))
		if err != nil {
			return nil, err
		}
		defer log.Close()
		const perSync = 256
		rounds := p.n(20)
		var installs, syncs time.Duration
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		seq := uint32(0)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < perSync; i++ {
				w := p.orders[i%len(p.orders)].Writes[i%2]
				seq++
				if err := log.LogInstall(tstamp.Make(1, seq, 0), w.Key, w.Functor); err != nil {
					return nil, err
				}
			}
			mid := time.Now()
			if err := log.Sync(); err != nil {
				return nil, err
			}
			installs += mid.Sub(start)
			syncs += time.Since(mid)
		}
		runtime.ReadMemStats(&m1)
		return []reading{
			{"wal.log_install_ns", "ns", float64(installs.Nanoseconds()) / float64(rounds*perSync),
				float64(m1.Mallocs-m0.Mallocs) / float64(rounds*perSync)},
			{"wal.sync_us", "us", float64(syncs.Microseconds()) / float64(rounds), -1},
		}, nil
	}},
	{"epoch.advance", func(p *probeEnv) ([]reading, error) {
		m := epoch.New(epoch.Config{})
		defer m.Stop()
		for i := 0; i < 2; i++ {
			if err := m.Register(idleParticipant{}); err != nil {
				return nil, err
			}
		}
		if err := m.Start(); err != nil {
			return nil, err
		}
		n := p.n(5_000)
		var err error
		ns, allocs := timed(n, func() {
			for i := 0; i < n; i++ {
				if _, err = m.Advance(); err != nil {
					return
				}
			}
		})
		return []reading{{"epoch.advance_us", "us", ns / 1e3, allocs}}, err
	}},
	{"tstamp.next", func(p *probeEnv) ([]reading, error) {
		g := tstamp.NewGenerator(0)
		g.SetEpoch(1)
		n := p.n(1_000_000)
		var err error
		var ts tstamp.Timestamp
		ns, allocs := timed(n, func() {
			for i := 0; i < n; i++ {
				if ts, err = g.Next(); err != nil {
					return
				}
			}
		})
		sink = ts
		return []reading{{"tstamp.next_ns", "ns", ns, allocs}}, err
	}},
}

// idleParticipant acknowledges every revoke at once.
type idleParticipant struct{}

func (idleParticipant) Grant(tstamp.Epoch)                {}
func (idleParticipant) Revoke(_ tstamp.Epoch, ack func()) { ack() }
func (idleParticipant) Committed(tstamp.Epoch)            {}

// runProbes runs every probe probeBatches times and reports, per metric,
// the median with min and max; allocation counts go under <name>_allocs.
func runProbes(seed int64, scale float64, tmpDir string) (map[string]metric, error) {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, err
	}
	env := &probeEnv{scale: scale, tmpDir: tmpDir}
	next, err := newStream(findSpec("neworder-mem"), seed, 0)
	if err != nil {
		return nil, err
	}
	for len(env.orders) < 256 {
		env.orders = append(env.orders, next().txn)
	}
	out := map[string]metric{}
	for _, pr := range probes {
		values, allocs, units := map[string][]float64{}, map[string][]float64{}, map[string]string{}
		for b := 0; b < probeBatches; b++ {
			readings, err := pr.run(env)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", pr.name, err)
			}
			for _, rd := range readings {
				values[rd.name] = append(values[rd.name], rd.value)
				units[rd.name] = rd.unit
				if rd.allocs >= 0 {
					allocs[rd.name] = append(allocs[rd.name], rd.allocs)
				}
			}
		}
		for name, vs := range values {
			lo, hi := minMax(vs)
			out[name] = metric{Value: median(vs), Unit: units[name], N: len(vs), Min: lo, Max: hi}
			if as, ok := allocs[name]; ok {
				alo, ahi := minMax(as)
				out[name+"_allocs"] = metric{Value: median(as), Unit: "count", N: len(as), Min: alo, Max: ahi}
			}
		}
	}
	return out, nil
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
