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
//
// No binary writes a checkpoint yet and nothing truncates a log: the loader
// serves RecoverCluster for a directory that holds one, and the writer that
// builds them lives in export_test.go until a server checkpoints at its
// epoch fence.

const (
	_ckptMagic   = 0x414c4348 // "ALCH"
	_ckptVersion = 2          // v2: rows in the log's record frame
)

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
