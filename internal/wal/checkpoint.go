package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
	"alohadb/internal/wire"
)

// A checkpoint captures, for every key, the latest final value (or
// tombstone) at or below a bound timestamp. Restoring a checkpoint and
// replaying the log's entries above the bound reproduces the pre-crash
// committed state while letting the log be truncated. Historical versions
// below the bound are collapsed into one value per key, the same trade-off
// as mvstore.Compact.

const (
	_ckptMagic   = 0x414c4348 // "ALCH"
	_ckptVersion = 2          // v2: rows in the log's record frame
)

// WriteCheckpoint scans the store and writes every key's latest readable
// state at or below bound to path. The store should be quiesced up to
// bound (all functors at or below it computed), which the caller arranges
// by draining the processors after an epoch switch; unresolved records at
// or below the bound are an error.
func WriteCheckpoint(store *mvstore.Store, bound tstamp.Timestamp, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wal: checkpoint create: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[:4], _ckptMagic)
	binary.BigEndian.PutUint32(hdr[4:8], _ckptVersion)
	binary.BigEndian.PutUint64(hdr[8:], uint64(bound))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}

	var scanErr error
	// Every row is framed into one reused buffer, as Log frames its
	// records.
	var frame []byte
	writeRow := func(k kv.Key, v tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value) error {
		frame = appendCkptRecord(frame[:0], k, v, kind, value)
		_, err := w.Write(frame)
		return err
	}
	// Keys, not chains: a row is written from where it lies, and the store
	// keeps the shape it has.
	store.RangeKeys(func(k kv.Key) bool {
		c, row, ok := store.Read(k, bound)
		if c == nil {
			if ok && (row.Kind == functor.Resolved || row.Kind == functor.ResolvedDeleted) {
				scanErr = writeRow(k, row.Version, row.Kind, row.Value)
			}
			return scanErr == nil
		}
		// Latest readable resolution at or below bound, in either tier of
		// the history: skip aborted and skipped versions, stop at a value or
		// tombstone.
		h := c.History()
		for i := h.Search(bound) - 1; i >= 0; i-- {
			kind, value := h.Outcome(i)
			if kind == 0 {
				scanErr = fmt.Errorf("wal: checkpoint: %q@%v not computed", k, h.Version(i))
				return false
			}
			if kind != functor.Resolved && kind != functor.ResolvedDeleted {
				continue
			}
			if werr := writeRow(k, h.Version(i), kind, value); werr != nil {
				scanErr = werr
				return false
			}
			break
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// appendCkptRecord appends one row to dst, framed as a log record of kind
// kindCheckpointRow: version(8, big-endian) | key(str) | kind(1) | value(bytes).
func appendCkptRecord(dst []byte, k kv.Key, v tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value) []byte {
	frame := beginFrame(dst, kindCheckpointRow)
	frame = binary.BigEndian.AppendUint64(frame, uint64(v))
	frame = wire.AppendString(frame, string(k))
	frame = append(frame, byte(kind))
	frame = wire.AppendBytes(frame, value)
	return endFrame(frame)
}

// LoadCheckpoint restores a store from a checkpoint file, returning the
// bound timestamp the checkpoint covers.
func LoadCheckpoint(path string) (*mvstore.Store, tstamp.Timestamp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: checkpoint open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("wal: checkpoint header: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[:4]) != _ckptMagic {
		return nil, 0, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	if got := binary.BigEndian.Uint32(hdr[4:8]); got != _ckptVersion {
		return nil, 0, fmt.Errorf("wal: unsupported checkpoint version %d", got)
	}
	bound := tstamp.Timestamp(binary.BigEndian.Uint64(hdr[8:]))
	store := mvstore.New()
	for {
		kind, payload, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("wal: checkpoint record: %w", err)
		}
		if kind != kindCheckpointRow {
			return nil, 0, fmt.Errorf("%w: checkpoint record of kind %d", ErrCorrupt, kind)
		}
		if err := loadCkptRecord(store, payload); err != nil {
			return nil, 0, err
		}
	}
	return store, bound, nil
}

func loadCkptRecord(store *mvstore.Store, payload []byte) error {
	if len(payload) < 8 {
		return fmt.Errorf("%w: short checkpoint record", ErrCorrupt)
	}
	v := tstamp.Timestamp(binary.BigEndian.Uint64(payload))
	r := wire.NewReader(payload[8:])
	k := kv.Key(r.String())
	kind := functor.ResolutionKind(r.Byte())
	val := kv.Value(r.Bytes())
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: checkpoint record: %v", ErrCorrupt, err)
	}
	switch kind {
	case functor.Resolved:
	case functor.ResolvedDeleted:
		val = nil
	default:
		return fmt.Errorf("%w: checkpoint resolution kind %d", ErrCorrupt, kind)
	}
	// One final value per key, nothing older to come: the store copies key
	// and value into a row (payload is this record's own, should a chain
	// keep them instead).
	if _, fresh := store.PutFinal(k, v, kind, val, true); !fresh {
		return mvstore.ErrVersionExists
	}
	return nil
}

// RecoverFull restores a store from an optional checkpoint plus the log:
// the checkpoint seeds state up to its bound, and the log contributes
// installs/aborts above the bound belonging to committed epochs. It
// returns the last committed epoch. An empty ckptPath means log-only
// recovery.
func RecoverFull(ckptPath, logPath string) (*mvstore.Store, tstamp.Epoch, error) {
	store := mvstore.New()
	var ckptBound tstamp.Timestamp
	if ckptPath != "" {
		var err error
		store, ckptBound, err = LoadCheckpoint(ckptPath)
		if err != nil {
			return nil, 0, err
		}
	}
	last, err := replayCommitted(store, logPath, ckptBound)
	if err != nil {
		return nil, 0, err
	}
	return store, last, nil
}
