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
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string

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
		f: f, w: bufio.NewWriterSize(f, 1<<16), path: path,
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

// Path returns the log file path.
func (l *Log) Path() string { return l.path }

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

// append frames one record and buffers it.
func (l *Log) append(e Entry) error {
	payload := appendEntry(make([]byte, 0, 64), e)
	l.appendHist.Observe(int64(frameHeaderSize + len(payload)))
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := writeFrame(l.w, e.Kind, payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	return nil
}

// frameHeaderSize is the record frame's header: crc(4) | kind(1) | len(4).
const frameHeaderSize = 9

// writeFrame writes one record, crc32(kind|len|payload) | kind | len |
// payload, the fixed fields big-endian. Log entries and checkpoint rows
// share it.
func writeFrame(w io.Writer, kind EntryKind, payload []byte) error {
	var hdr [frameHeaderSize]byte
	hdr[4] = byte(kind)
	binary.BigEndian.PutUint32(hdr[5:], uint32(len(payload)))
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, payload)
	binary.BigEndian.PutUint32(hdr[:4], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one record writeFrame wrote. A clean end of input is
// io.EOF; a torn header or payload, an implausible size or a CRC mismatch
// is ErrCorrupt.
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

// Sync flushes buffered records and fsyncs the file.
func (l *Log) Sync() error {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
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

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Close()
}

// Replay streams every intact entry of the log at path to fn, stopping at
// the first corrupt/torn record (which it reports via ErrCorrupt only if
// strict is requested through ReplayStrict; plain Replay treats a torn tail
// as end-of-log).
func Replay(path string, fn func(Entry) error) error { return replay(path, fn, false) }

// ReplayStrict is Replay but fails on any corrupt record.
func ReplayStrict(path string, fn func(Entry) error) error { return replay(path, fn, true) }

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
