// Package alohadb is a Go implementation of ALOHA-DB, the scalable
// distributed transaction processing system of "Scalable Transaction
// Processing Using Functors" (Fan & Golab, ICDCS 2018). It provides
// serializable distributed read-write transactions using functor-enabled
// epoch-based concurrency control: transactions install functors — lazy
// placeholders for values — in write epochs without any locking, and the
// functors are computed asynchronously (or on demand at read time) against
// historical versions only. Transactions never abort due to read-write or
// write-write conflicts; they abort only on logic errors or constraint
// violations.
//
// The package is a facade over the engine in internal/core. Open an
// embedded cluster, submit transactions built from functors, and read at
// serializable snapshots:
//
//	db, err := alohadb.Open(alohadb.Config{Servers: 4})
//	...
//	h, err := db.Submit(ctx, alohadb.Txn{Writes: []alohadb.Write{
//	    {Key: "balance:alice", Functor: alohadb.Sub(100)},
//	    {Key: "balance:bob", Functor: alohadb.Add(100)},
//	}})
package alohadb

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/metrics"
	"alohadb/internal/placement"
	"alohadb/internal/trace"
	"alohadb/internal/tstamp"
)

// Core type aliases, re-exported so users never import internal packages.
type (
	// Key identifies an item in the hash-partitioned table.
	Key = kv.Key
	// Value is an opaque byte payload.
	Value = kv.Value
	// Pair couples a key with a value for bulk loading.
	Pair = kv.Pair
	// Timestamp is a transaction version number; it orders all
	// transactions and doubles as a snapshot identifier.
	Timestamp = tstamp.Timestamp
	// Txn is a transaction: a write set of key-functor pairs plus
	// optional phase-1 existence requirements.
	Txn = core.Txn
	// Write is one key-functor pair.
	Write = core.Write
	// TxnHandle tracks a submitted transaction through the two
	// acknowledgment options (installed / fully computed).
	TxnHandle = core.TxnHandle
	// TxnResult is the phase-1 outcome of a transaction.
	TxnResult = core.TxnResult
	// Functor is a placeholder for the value of a key, computed at most
	// once from historical versions.
	Functor = functor.Functor
	// Resolution is a functor's final state.
	Resolution = functor.Resolution
	// HandlerContext carries a functor computation's inputs.
	HandlerContext = functor.Context
	// Handler computes a user-defined functor. Handlers must be pure
	// functions of their context.
	Handler = functor.Handler
	// Read is one read-set entry handed to a handler.
	Read = functor.Read
	// Stats aggregates engine counters.
	Stats = core.Stats
	// Router maps a key and an epoch to its owning server (see
	// internal/placement).
	Router = placement.Router
)

// NewStaticRouter wraps a partition function — key and cluster size to
// server index; nil means the default hash placement — in a fixed
// generation-0 Router for n servers.
func NewStaticRouter(n int, fn func(Key, int) int) Router { return placement.NewStatic(n, fn) }

// Metrics type aliases: the self-describing families returned by
// DB.Metrics. A Family is one named metric (counter, gauge, or histogram)
// with one or more labeled series; histogram series carry a
// HistogramSnapshot from which quantiles can be extracted.
type (
	// MetricFamily is one named metric with its series.
	MetricFamily = metrics.Family
	// MetricSeries is one labeled sample (or histogram) of a family.
	MetricSeries = metrics.Series
	// MetricLabel is one key=value pair attached to a series.
	MetricLabel = metrics.Label
	// MetricKind discriminates counter, gauge, and histogram families.
	MetricKind = metrics.Kind
	// HistogramSnapshot is a point-in-time copy of a histogram's buckets;
	// use Quantile/QuantileDuration/Mean to summarize it.
	HistogramSnapshot = metrics.HistogramSnapshot
)

// Metric kind values.
const (
	KindCounter   = metrics.KindCounter
	KindGauge     = metrics.KindGauge
	KindHistogram = metrics.KindHistogram
)

// Tracing type aliases: per-transaction lifecycle traces (see DB.Traces).
type (
	// TraceConfig enables the distributed tracer: a head-based sample
	// rate, a slow-transaction capture threshold, and the span ring size.
	TraceConfig = trace.Config
	// TraceData is one captured trace: all retained spans of a TraceID.
	TraceData = trace.Trace
	// SpanData is one completed span within a trace.
	SpanData = trace.SpanData
)

// SlowestTraces sorts traces longest-first and keeps the top n; use it to
// triage DB.Traces / DB.SlowTraces output.
var SlowestTraces = trace.Slowest

// Functor constructors, re-exported.
var (
	// PutValue writes a literal value (f-type VALUE).
	PutValue = functor.Value
	// Delete writes a tombstone (f-type DELETED).
	Delete = functor.Deleted
	// Add increments the key's numeric value (f-type ADD).
	Add = functor.Add
	// Sub decrements the key's numeric value (f-type SUBTR).
	Sub = functor.Sub
	// Max raises the key's numeric value to at least the argument.
	Max = functor.Max
	// Min lowers the key's numeric value to at most the argument.
	Min = functor.Min
	// User invokes a handler registered via Config.Handlers.
	User = functor.User
	// WithRecipients sets a functor's proactive-push recipient set.
	WithRecipients = functor.WithRecipients
	// WithDependentKeys declares a determinate functor's dependent keys.
	WithDependentKeys = functor.WithDependentKeys
)

// Resolution constructors for handlers.
var (
	// ResolveValue commits a concrete value.
	ResolveValue = functor.ValueResolution
	// ResolveAbort aborts the transaction (logic error).
	ResolveAbort = functor.AbortResolution
	// ResolveDelete commits a tombstone.
	ResolveDelete = functor.DeleteResolution
)

// EncodeInt64 and DecodeInt64 expose the numeric value encoding used by
// the arithmetic f-types.
var (
	EncodeInt64 = kv.EncodeInt64
	DecodeInt64 = kv.DecodeInt64
)

// Config configures an embedded ALOHA-DB cluster.
type Config struct {
	// Servers is the number of combined FE/BE nodes. Required.
	Servers int
	// EpochDuration is the unified epoch length (default 25 ms).
	EpochDuration time.Duration
	// ManualEpochs disables the epoch timer; drive epochs with
	// DB.AdvanceEpoch (deterministic tests and examples).
	ManualEpochs bool
	// Handlers registers user-defined functor handlers by name.
	Handlers map[string]Handler
	// Router overrides key placement with a versioned, epoch-aware
	// ownership map (default: hash-partitioned StaticRouter).
	Router Router
	// DependencyRule declares schema-level key dependencies for dependent
	// transactions (paper §IV-E).
	DependencyRule func(k Key) (Key, bool)
	// Preload streams initial data, loaded at epoch 0 before serving.
	Preload func(emit func(Pair) error) error
	// Workers is the per-server functor processor pool size (default
	// max(2, GOMAXPROCS)).
	Workers int
	// Trace enables per-transaction distributed tracing. The zero value
	// disables it with no overhead on the transaction path.
	Trace TraceConfig
}

// DB is an embedded ALOHA-DB cluster.
type DB struct {
	cluster *core.Cluster
	next    atomic.Uint64 // round-robin front-end selection
}

// Open builds, loads, and starts a cluster.
func Open(cfg Config) (*DB, error) {
	reg := functor.NewRegistry()
	if err := reg.Register(_occHandlerName, occHandler); err != nil {
		return nil, err
	}
	for name, h := range cfg.Handlers {
		if err := reg.Register(name, h); err != nil {
			return nil, fmt.Errorf("alohadb: %w", err)
		}
	}
	cluster, err := core.NewCluster(core.ClusterConfig{
		Servers:        cfg.Servers,
		EpochDuration:  cfg.EpochDuration,
		ManualEpochs:   cfg.ManualEpochs,
		Router:         cfg.Router,
		Registry:       reg,
		Workers:        cfg.Workers,
		DependencyRule: cfg.DependencyRule,
		Tracer:         trace.New(cfg.Trace),
	})
	if err != nil {
		return nil, err
	}
	if cfg.Preload != nil {
		err := cfg.Preload(func(p Pair) error {
			return cluster.Load([]Pair{p})
		})
		if err != nil {
			cluster.Close()
			return nil, fmt.Errorf("alohadb: preload: %w", err)
		}
	}
	if err := cluster.Start(); err != nil {
		cluster.Close()
		return nil, err
	}
	return &DB{cluster: cluster}, nil
}

// Close shuts the cluster down.
func (db *DB) Close() error { return db.cluster.Close() }

// fe picks a front-end round-robin; any server can coordinate any
// transaction.
func (db *DB) fe() *core.Server {
	n := db.next.Add(1)
	return db.cluster.Server(int(n) % db.cluster.NumServers())
}

// Submit runs one transaction's write-only phase and returns its handle.
// The handle's Installed result is the first acknowledgment option
// (phase 1 complete); Await is the second (functors fully computed).
func (db *DB) Submit(ctx context.Context, txn Txn) (*TxnHandle, error) {
	return db.fe().Submit(ctx, txn)
}

// SubmitBatch runs many transactions with one install round per involved
// partition.
func (db *DB) SubmitBatch(ctx context.Context, txns []Txn) ([]TxnResult, []*TxnHandle, error) {
	return db.fe().SubmitBatch(ctx, txns)
}

// ReadOptions selects which snapshot a Read observes. The zero value
// requests a fresh read.
type ReadOptions struct {
	// Snapshot, when nonzero, pins the read to an explicit snapshot
	// timestamp (historical / time-travel read).
	Snapshot Timestamp
	// Committed, when true, reads the latest already-committed epoch
	// instead of waiting for the current one.
	Committed bool
}

// Read is the documented single entry point for point reads; Get,
// GetCommitted, and GetAt are thin wrappers over it. All three modes are
// serializable — they observe a prefix of the transaction order — and
// differ only in freshness (the staleness contract):
//
//   - Fresh (zero ReadOptions): the read draws a timestamp in the current
//     write epoch and is served when that epoch commits (unified epochs,
//     paper §III-B). No staleness, but the reply waits up to one epoch
//     duration (25 ms by default).
//   - Committed (Committed: true): the read is served immediately from the
//     newest committed epoch. Staleness is bounded by at most one epoch:
//     it may miss transactions from the still-open epoch, never more.
//   - Snapshot (Snapshot != 0): the read is pinned to the given snapshot,
//     typically obtained from DB.Snapshot or TxnHandle timestamps.
//     Historical snapshots are served immediately at any time; staleness
//     is whatever the caller chose. Setting both Snapshot and Committed is
//     an error.
func (db *DB) Read(ctx context.Context, key Key, opts ReadOptions) (Value, bool, error) {
	switch {
	case opts.Snapshot != 0 && opts.Committed:
		return nil, false, fmt.Errorf("alohadb: ReadOptions sets both Snapshot and Committed")
	case opts.Snapshot != 0:
		return db.fe().GetAt(ctx, key, opts.Snapshot)
	case opts.Committed:
		return db.fe().GetCommitted(ctx, key)
	default:
		return db.fe().Get(ctx, key)
	}
}

// Get performs a fresh serializable read. Equivalent to Read with zero
// ReadOptions; see Read for the staleness contract.
func (db *DB) Get(ctx context.Context, key Key) (Value, bool, error) {
	return db.Read(ctx, key, ReadOptions{})
}

// GetCommitted reads the latest already-committed version without waiting
// for the current epoch. Equivalent to Read with Committed: true; see
// Read for the staleness contract.
func (db *DB) GetCommitted(ctx context.Context, key Key) (Value, bool, error) {
	return db.Read(ctx, key, ReadOptions{Committed: true})
}

// GetAt reads the key at an explicit snapshot. Equivalent to Read with
// Snapshot set; see Read for the staleness contract.
func (db *DB) GetAt(ctx context.Context, key Key, snapshot Timestamp) (Value, bool, error) {
	return db.Read(ctx, key, ReadOptions{Snapshot: snapshot})
}

// Snapshot returns a fresh snapshot timestamp in the current epoch. Reads
// with GetAt at this snapshot form a serializable read-only transaction.
func (db *DB) Snapshot() (Timestamp, error) { return db.fe().Snapshot() }

// ReadMany reads several keys at one consistent snapshot.
func (db *DB) ReadMany(ctx context.Context, keys []Key) (map[Key]Value, Timestamp, error) {
	return db.fe().ReadMany(ctx, keys)
}

// ScanPrefix reads every key with the given prefix at one consistent
// snapshot across all partitions — a serializable analytic read-only
// transaction that needs no prior knowledge of the key set.
func (db *DB) ScanPrefix(ctx context.Context, prefix Key, snapshot Timestamp) (map[Key]Value, error) {
	return db.fe().ScanPrefix(ctx, prefix, snapshot)
}

// SetRetention bounds the version history to the given number of epochs;
// older final versions are garbage-collected at epoch boundaries (the
// newest version below the horizon always survives). Zero keeps all
// history.
func (db *DB) SetRetention(epochs Epoch) { db.cluster.SetRetention(epochs) }

// Epoch aliases the epoch number type.
type Epoch = tstamp.Epoch

// AdvanceEpoch performs one manual epoch switch (ManualEpochs mode).
func (db *DB) AdvanceEpoch() error {
	_, err := db.cluster.AdvanceEpoch()
	return err
}

// Stats aggregates all servers' counters. It is a thin compatibility view
// over the metric families returned by Metrics; prefer Metrics for new
// code (it carries full latency distributions, not just sums).
func (db *DB) Stats() Stats { return db.cluster.Stats() }

// Metrics snapshots every metric family of the cluster: per-server stage
// histograms (install/wait/compute), epoch txn counts and switch
// durations, transport message/byte counters, and WAL append/fsync
// histograms when durability is wired. Families are sorted by name;
// per-server series carry a server="i" label. The snapshot is safe to
// take concurrently with transaction processing.
func (db *DB) Metrics() []MetricFamily { return db.cluster.Metrics() }

// Traces snapshots the recent sampled traces, oldest first. Returns nil
// unless Config.Trace enabled the tracer.
func (db *DB) Traces() []TraceData { return db.cluster.Traces() }

// SlowTraces snapshots the traces captured by the slow-transaction policy
// (root duration >= Config.Trace.SlowThreshold), including unsampled
// outliers the head-based sampler dropped.
func (db *DB) SlowTraces() []TraceData { return db.cluster.SlowTraces() }

// TraceHandler returns the /debug/traces HTTP handler for this DB's
// tracer, ready to hand to metrics.OpsHandler (or any mux). Safe to call
// when tracing is disabled: routes answer 404 with a hint.
func (db *DB) TraceHandler() http.Handler { return metrics.TraceHandler(db.cluster.Tracer()) }

// NumServers returns the cluster size.
func (db *DB) NumServers() int { return db.cluster.NumServers() }

// Cluster exposes the underlying engine for advanced integrations
// (benchmark harnesses, durability wiring).
func (db *DB) Cluster() *core.Cluster { return db.cluster }
