package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
	"alohadb/internal/wire"
)

// Path returns the log file path.
func (l *Log) Path() string { return l.path }

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
