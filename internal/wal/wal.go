// Package wal implements ALOHA-DB's epoch-granularity write-ahead log and
// checkpointing, the fault-tolerance strategy inherited from ALOHA-KV
// (paper §III-A). Installs and second-round aborts are appended as they
// happen; the epoch-committed marker is appended and synced at each epoch
// switch, making the epoch the atomic durability unit. Recovery replays
// installs and aborts of committed epochs only — an epoch without its
// marker never happened, exactly matching ECC's visibility rule.
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/metrics"
	"alohadb/internal/tstamp"
	"alohadb/internal/wire"
)

// EntryKind tags one log record.
type EntryKind uint8

const (
	// KindInstall records one installed key-functor pair.
	KindInstall EntryKind = iota + 1
	// KindAbort records a second-round abort.
	KindAbort
	// KindEpochCommitted marks an epoch fully committed (synced).
	KindEpochCommitted
	// kindCheckpointRow frames one row of a checkpoint file; it never
	// appears in a log.
	kindCheckpointRow
)

// Entry is one decoded log record.
type Entry struct {
	Kind    EntryKind
	Version tstamp.Timestamp
	Epoch   tstamp.Epoch // KindEpochCommitted only
	Key     kv.Key       // KindInstall only
	Functor *functor.Functor
	Keys    []kv.Key // KindAbort only
}

// ErrCorrupt reports a failed CRC or framing check; replay stops at the
// last intact record, which is the standard torn-write recovery rule.
var ErrCorrupt = errors.New("wal: corrupt entry")

// Log is an append-only write-ahead log for one server. Appends are
// buffered; Sync flushes and fsyncs. All methods are safe for concurrent
// use.
type Log struct {
	// mu orders appends: it guards w and frame. A Sync holds it only to
	// flush, never across the fsync.
	mu sync.Mutex
	// syncMu serializes the flush+fsync of Sync with another Sync and
	// with Close, so Close waits for an fsync in flight. It is taken
	// before mu, never after.
	syncMu sync.Mutex
	f      *os.File
	w      *bufio.Writer
	path   string
	// frame is the scratch buffer every record is framed into under mu:
	// it grows to the largest record appended and is reused, so an append
	// allocates nothing.
	frame []byte
	// fsync makes what was flushed durable; it is f.Sync but for tests
	// that hold a Sync inside its fsync.
	fsync func() error

	appendHist *metrics.Histogram // framed record sizes in bytes
	fsyncHist  *metrics.Histogram // Sync (flush+fsync) latency

	// lastSync is the wall time (UnixNano) of the last completed Sync;
	// zero until the first. Readiness probes alert on its age: an epoch
	// switch fsyncs once per epoch, so a stale fsync means commits stopped
	// reaching disk.
	lastSync atomic.Int64
}

// Open creates or appends to the log at path.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	return &Log{
		f: f, w: bufio.NewWriterSize(f, 1<<16), path: path, fsync: f.Sync,
		appendHist: metrics.NewHistogram(metrics.SizeBounds()),
		fsyncHist:  metrics.NewHistogram(metrics.LatencyBounds()),
	}, nil
}

// Metric family names exported by the log.
const (
	// FamAppendBytes is the framed record size distribution.
	FamAppendBytes = "aloha_wal_append_bytes"
	// FamFsync is the Sync (flush + fsync) latency distribution.
	FamFsync = "aloha_wal_fsync_seconds"
)

// MetricFamilies returns the log's metric snapshot. core.Server detects
// this method on its durability hook and folds the families into its own.
func (l *Log) MetricFamilies() []metrics.Family {
	return []metrics.Family{
		{
			Name:   FamAppendBytes,
			Help:   "Size of appended WAL records including framing.",
			Kind:   metrics.KindHistogram,
			Series: []metrics.Series{metrics.HistSeries(l.appendHist.Snapshot())},
		},
		{
			Name: FamFsync,
			Help: "WAL flush+fsync latency (one per committed epoch).",
			Kind: metrics.KindHistogram, Unit: metrics.UnitSeconds,
			Series: []metrics.Series{metrics.HistSeries(l.fsyncHist.Snapshot())},
		},
	}
}

// appendEntry appends e's record payload to dst: what Log frames behind
// e.Kind on disk. decodeEntry is its inverse.
func appendEntry(dst []byte, e Entry) []byte {
	switch e.Kind {
	case KindInstall:
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Version))
		dst = wire.AppendString(dst, string(e.Key))
		dst = functor.AppendFunctor(dst, e.Functor)
	case KindAbort:
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Version))
		dst = wire.AppendStrings(dst, e.Keys)
	case KindEpochCommitted:
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.Epoch))
	}
	return dst
}

// LogInstall implements core.DurabilityHook.
func (l *Log) LogInstall(version tstamp.Timestamp, key kv.Key, fn *functor.Functor) error {
	return l.append(Entry{Kind: KindInstall, Version: version, Key: key, Functor: fn})
}

// LogAbort implements core.DurabilityHook.
func (l *Log) LogAbort(version tstamp.Timestamp, keys []kv.Key) error {
	return l.append(Entry{Kind: KindAbort, Version: version, Keys: keys})
}

// LogEpochCommitted implements core.DurabilityHook: append the marker and
// fsync, making the whole epoch durable in one synchronous write per epoch
// (the amortization that lets ECC log at memory speed). The context carries
// the epoch-commit trace; the fsync itself is not cancellable mid-call.
func (l *Log) LogEpochCommitted(ctx context.Context, e tstamp.Epoch) error {
	if err := l.append(Entry{Kind: KindEpochCommitted, Epoch: e}); err != nil {
		return err
	}
	return l.Sync()
}

// append frames one record and buffers it. The record is encoded once,
// header and payload together, into l.frame, which only grows: in the
// steady state an append allocates nothing and copies the record once,
// into the bufio.Writer.
func (l *Log) append(e Entry) error {
	l.mu.Lock()
	l.frame = endFrame(appendEntry(beginFrame(l.frame[:0], e.Kind), e))
	n := len(l.frame)
	_, err := l.w.Write(l.frame)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.appendHist.Observe(int64(n))
	return nil
}

// frameHeaderSize is the record frame's header: crc(4) | kind(1) | len(4).
const frameHeaderSize = 9

// beginFrame appends the header of a record of the given kind to dst, its
// crc and length still zero; the caller appends the payload behind it and
// calls endFrame. Log entries and checkpoint rows share the frame:
// crc32(kind|len|payload) | kind | len | payload, the fixed fields
// big-endian.
func beginFrame(dst []byte, kind EntryKind) []byte {
	return append(dst, 0, 0, 0, 0, byte(kind), 0, 0, 0, 0)
}

// endFrame fills in the length and crc of frame, one record from its
// header on, and returns it. kind, length and payload lie side by side, so
// one crc32 call covers them.
func endFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame[5:frameHeaderSize], uint32(len(frame)-frameHeaderSize))
	binary.BigEndian.PutUint32(frame[:4], crc32.ChecksumIEEE(frame[4:]))
	return frame
}

// readFrame reads one record beginFrame and endFrame framed. A clean end
// of input is io.EOF; a torn header or payload, an implausible size or a
// CRC mismatch is ErrCorrupt.
func readFrame(r *bufio.Reader) (EntryKind, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("%w: torn header", ErrCorrupt)
		}
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[5:])
	if size > 1<<24 {
		return 0, nil, fmt.Errorf("%w: implausible size %d", ErrCorrupt, size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: torn payload", ErrCorrupt)
	}
	if crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, payload) != binary.BigEndian.Uint32(hdr[:4]) {
		return 0, nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return EntryKind(hdr[4]), payload, nil
}

// Sync flushes buffered records and fsyncs the file. It holds the append
// lock only for the flush: records appended during the fsync belong to the
// next epoch and ride the next Sync.
func (l *Log) Sync() error {
	start := time.Now()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	err := l.w.Flush()
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.fsync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.fsyncHist.ObserveDuration(time.Since(start))
	l.lastSync.Store(time.Now().UnixNano())
	return nil
}

// LastSyncAge implements core.DurabilityHook: the time since the last
// completed Sync; ok is false before the first. The server reads it for
// stall snapshots and the flight recorder, and aloha-server's readiness
// probe alerts when the age exceeds its threshold.
func (l *Log) LastSyncAge() (time.Duration, bool) {
	ns := l.lastSync.Load()
	if ns == 0 {
		return 0, false
	}
	return time.Since(time.Unix(0, ns)), true
}

// Close flushes and closes the log, after any Sync in flight.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Close()
}

// Replay streams every intact entry of the log at path to fn. The first
// corrupt or torn record ends the log and is not an error: a crash tears
// the tail.
func Replay(path string, fn func(Entry) error) error { return replay(path, fn, false) }

// replay is Replay; with strict set it returns a corrupt or torn record's
// ErrCorrupt instead of stopping quietly.
func replay(path string, fn func(Entry) error, strict bool) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		entry, err := readEntry(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if strict {
				return err
			}
			return nil // torn tail: recover up to here
		}
		if err := fn(entry); err != nil {
			return err
		}
	}
}

func readEntry(r *bufio.Reader) (Entry, error) {
	kind, payload, err := readFrame(r)
	if err != nil {
		return Entry{}, err
	}
	return decodeEntry(kind, payload)
}

// decodeEntry decodes one record payload of the given kind, as written by
// appendEntry: a big-endian version or epoch, then wire-encoded fields. The
// key, the abort keys and the functor's handler, argument and keys alias
// payload, so the caller hands payload to the entry and never reuses it
// (wire.DecodeEnvelope's ownership rule).
func decodeEntry(kind EntryKind, payload []byte) (Entry, error) {
	e := Entry{Kind: kind}
	switch kind {
	case KindInstall, KindAbort:
		if len(payload) < 8 {
			return Entry{}, fmt.Errorf("%w: short record of kind %d", ErrCorrupt, kind)
		}
		e.Version = tstamp.Timestamp(binary.BigEndian.Uint64(payload))
		r := wire.NewReader(payload[8:])
		if kind == KindInstall {
			e.Key = kv.Key(r.String())
			e.Functor = new(functor.Functor)
			functor.ReadFunctor(&r, e.Functor)
		} else {
			e.Keys = wire.ReadStrings(&r, e.Keys)
		}
		if err := r.Finish(); err != nil {
			return Entry{}, fmt.Errorf("%w: record of kind %d: %v", ErrCorrupt, kind, err)
		}
	case KindEpochCommitted:
		if len(payload) != 4 {
			return Entry{}, fmt.Errorf("%w: bad epoch marker", ErrCorrupt)
		}
		e.Epoch = tstamp.Epoch(binary.BigEndian.Uint32(payload))
	default:
		return Entry{}, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	return e, nil
}
