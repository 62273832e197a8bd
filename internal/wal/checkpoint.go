package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

// A checkpoint captures, for every key, the latest final value (or
// tombstone) at or below a bound timestamp. Restoring a checkpoint and
// replaying the log's entries above the bound reproduces the pre-crash
// committed state while letting the log be truncated. Historical versions
// below the bound are collapsed into one value per key, the same trade-off
// as mvstore.Compact.

const (
	_ckptMagic   = 0x414c4348 // "ALCH"
	_ckptVersion = 1
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
	// Keys, not chains: a row is written from where it lies, and the store
	// keeps the shape it has.
	store.RangeKeys(func(k kv.Key) bool {
		c, row, ok := store.Read(k, bound)
		if c == nil {
			if ok && (row.Kind == functor.Resolved || row.Kind == functor.ResolvedDeleted) {
				scanErr = writeCkptRecord(w, k, row.Version, row.Kind, row.Value)
			}
			return scanErr == nil
		}
		view := c.View()
		// Latest readable resolution at or below bound: skip aborted and
		// skipped versions, stop at a value or tombstone.
		for i := len(view) - 1; i >= 0; i-- {
			rec := view[i]
			if rec.Version > bound {
				continue
			}
			kind, value, _ := rec.Outcome()
			if kind == 0 {
				scanErr = fmt.Errorf("wal: checkpoint: %q@%v not computed", k, rec.Version)
				return false
			}
			if kind != functor.Resolved && kind != functor.ResolvedDeleted {
				continue
			}
			if werr := writeCkptRecord(w, k, rec.Version, kind, value); werr != nil {
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

func writeCkptRecord(w io.Writer, k kv.Key, v tstamp.Timestamp, kind functor.ResolutionKind, value kv.Value) error {
	payload := make([]byte, 0, 32+len(k)+len(value))
	payload = binary.BigEndian.AppendUint64(payload, uint64(v))
	payload = binary.AppendUvarint(payload, uint64(len(k)))
	payload = append(payload, k...)
	payload = append(payload, byte(kind))
	payload = binary.AppendUvarint(payload, uint64(len(value)))
	payload = append(payload, value...)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:])
	crc.Write(payload)
	binary.BigEndian.PutUint32(hdr[:4], crc.Sum32())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
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
		var rhdr [8]byte
		if _, err := io.ReadFull(r, rhdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, 0, fmt.Errorf("%w: torn checkpoint record", ErrCorrupt)
		}
		size := binary.BigEndian.Uint32(rhdr[4:])
		if size > 1<<24 {
			return nil, 0, fmt.Errorf("%w: implausible checkpoint record", ErrCorrupt)
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, 0, fmt.Errorf("%w: torn checkpoint record", ErrCorrupt)
		}
		crc := crc32.NewIEEE()
		crc.Write(rhdr[4:])
		crc.Write(payload)
		if crc.Sum32() != binary.BigEndian.Uint32(rhdr[:4]) {
			return nil, 0, fmt.Errorf("%w: checkpoint crc", ErrCorrupt)
		}
		if err := loadCkptRecord(store, payload); err != nil {
			return nil, 0, err
		}
	}
	return store, bound, nil
}

func loadCkptRecord(store *mvstore.Store, payload []byte) error {
	if len(payload) < 9 {
		return fmt.Errorf("%w: short checkpoint record", ErrCorrupt)
	}
	v := tstamp.Timestamp(binary.BigEndian.Uint64(payload))
	rest := payload[8:]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || klen > uint64(len(rest)-n) {
		return fmt.Errorf("%w: checkpoint key", ErrCorrupt)
	}
	k := kv.Key(rest[n : n+int(klen)])
	rest = rest[n+int(klen):]
	if len(rest) < 1 {
		return fmt.Errorf("%w: checkpoint kind", ErrCorrupt)
	}
	kind := functor.ResolutionKind(rest[0])
	rest = rest[1:]
	vlen, n := binary.Uvarint(rest)
	if n <= 0 || vlen > uint64(len(rest)-n) {
		return fmt.Errorf("%w: checkpoint value", ErrCorrupt)
	}
	val := kv.Value(rest[n : n+int(vlen)])
	switch kind {
	case functor.Resolved:
	case functor.ResolvedDeleted:
		val = nil
	default:
		return fmt.Errorf("%w: checkpoint resolution kind %d", ErrCorrupt, kind)
	}
	// One final value per key, nothing older to come: the store copies it
	// into a row (payload is this record's own, should it be kept instead).
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
