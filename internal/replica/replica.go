// Package replica implements ALOHA-DB's primary-backup replication at
// epoch granularity (the fault-tolerance strategy of ALOHA-KV the paper
// inherits, §III-A). The primary's durability hook buffers each epoch's
// installs and aborts and ships them to a backup when the epoch commits;
// the backup maintains a shadow store that can be promoted to seed a
// replacement server after a primary crash.
package replica

import (
	"context"
	"fmt"
	"sync"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
	"alohadb/internal/wal"
)

// Sink receives one committed epoch's entries, in commit order. The
// context is the primary's epoch-commit context: it carries the commit
// trace and is cancelled when the primary shuts down, so an in-flight
// shipment to a dead backup cannot wedge Close.
type Sink interface {
	ShipEpoch(ctx context.Context, e tstamp.Epoch, entries []wal.Entry) error
}

// Shipper buffers a primary's durable-state stream per epoch and ships
// each epoch to the sink at its commit marker. It implements
// core.DurabilityHook.
type Shipper struct {
	sink Sink

	mu  sync.Mutex
	buf []wal.Entry // entries of not-yet-committed epochs
}

var _ core.DurabilityHook = (*Shipper)(nil)

// NewShipper returns a shipper delivering committed epochs to sink.
func NewShipper(sink Sink) *Shipper {
	return &Shipper{sink: sink}
}

// LogInstall implements core.DurabilityHook.
func (s *Shipper) LogInstall(version tstamp.Timestamp, key kv.Key, fn *functor.Functor) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, wal.Entry{Kind: wal.KindInstall, Version: version, Key: key, Functor: fn})
	return nil
}

// LogAbort implements core.DurabilityHook.
func (s *Shipper) LogAbort(version tstamp.Timestamp, keys []kv.Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, wal.Entry{Kind: wal.KindAbort, Version: version, Keys: keys})
	return nil
}

// LogEpochCommitted implements core.DurabilityHook: ship every buffered
// entry belonging to epochs <= e. Entries of later epochs (straggler-mode
// installs that raced the switch) stay buffered for their own commit.
func (s *Shipper) LogEpochCommitted(ctx context.Context, e tstamp.Epoch) error {
	s.mu.Lock()
	var ship, keep []wal.Entry
	for _, entry := range s.buf {
		if entry.Version.Epoch() <= e {
			ship = append(ship, entry)
		} else {
			keep = append(keep, entry)
		}
	}
	s.buf = keep
	s.mu.Unlock()
	return s.sink.ShipEpoch(ctx, e, ship)
}

// Backup maintains a shadow copy of one primary's partition, applied one
// committed epoch at a time. It implements Sink for in-process wiring and
// is driven by BackupNode for cross-process replication.
type Backup struct {
	mu    sync.Mutex
	store *mvstore.Store
	last  tstamp.Epoch
}

var _ Sink = (*Backup)(nil)

// NewBackup returns an empty backup.
func NewBackup() *Backup {
	return &Backup{store: mvstore.New()}
}

// ShipEpoch implements Sink: apply the epoch's installs and aborts.
// Application is idempotent (duplicate installs are ignored, abort
// resolution is a CAS), so a retried shipment is harmless.
func (b *Backup) ShipEpoch(_ context.Context, e tstamp.Epoch, entries []wal.Entry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e < b.last {
		return nil // stale duplicate
	}
	for _, entry := range entries {
		switch entry.Kind {
		case wal.KindInstall:
			if _, err := b.store.Put(entry.Key, entry.Version, entry.Functor); err != nil && err != mvstore.ErrVersionExists {
				return fmt.Errorf("replica: apply install %q@%v: %w", entry.Key, entry.Version, err)
			}
		case wal.KindAbort:
			for _, k := range entry.Keys {
				if rec, ok := b.store.At(k, entry.Version); ok {
					rec.Resolve(functor.AbortResolution("aborted: peer partition failed phase 1"))
				}
			}
		default:
			return fmt.Errorf("replica: unexpected entry kind %d", entry.Kind)
		}
	}
	// Publish the epoch on the shadow store (in-epoch -> out-epoch).
	b.store.SealAll(tstamp.End(e))
	b.last = e
	return nil
}

// LastEpoch returns the newest fully applied epoch.
func (b *Backup) LastEpoch() tstamp.Epoch {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

// Promote hands the shadow store over for seeding a replacement server
// (core.ClusterConfig.Stores) and reports the last applied epoch; the new
// cluster starts at the next epoch. The backup must not receive further
// shipments after promotion.
func (b *Backup) Promote() (*mvstore.Store, tstamp.Epoch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.store, b.last
}

// --- cross-process shipping ------------------------------------------------

// MsgShipEpoch carries one committed epoch to a remote backup node.
type MsgShipEpoch struct {
	E       tstamp.Epoch
	Entries []wal.Entry
}

// RemoteSink ships epochs to a backup node over the transport. Shipments
// are synchronous calls so the primary learns about a dead backup at the
// epoch boundary rather than silently diverging.
type RemoteSink struct {
	conn transport.Conn
	node transport.NodeID
}

var _ Sink = (*RemoteSink)(nil)

// NewRemoteSink returns a sink delivering to the backup at node via conn.
func NewRemoteSink(conn transport.Conn, node transport.NodeID) *RemoteSink {
	return &RemoteSink{conn: conn, node: node}
}

// ShipEpoch implements Sink. The call runs on the primary's epoch-commit
// context, so server shutdown cancels a shipment stuck on a dead backup
// and the epoch-commit trace (if sampled) extends across the shipment.
func (s *RemoteSink) ShipEpoch(ctx context.Context, e tstamp.Epoch, entries []wal.Entry) error {
	_, err := s.conn.Call(ctx, s.node, MsgShipEpoch{E: e, Entries: entries})
	if err != nil {
		return fmt.Errorf("replica: ship epoch %d: %w", e, err)
	}
	return nil
}

// BackupNode hosts a Backup behind a transport node.
type BackupNode struct {
	Backup *Backup
	conn   transport.Conn
}

// NewBackupNode attaches a backup to the network at nodeID.
func NewBackupNode(net transport.Network, nodeID transport.NodeID) (*BackupNode, error) {
	n := &BackupNode{Backup: NewBackup()}
	conn, err := net.Node(nodeID, n.handle)
	if err != nil {
		return nil, err
	}
	n.conn = conn
	return n, nil
}

func (n *BackupNode) handle(ctx context.Context, from transport.NodeID, msg any) (any, error) {
	m, ok := msg.(MsgShipEpoch)
	if !ok {
		return nil, fmt.Errorf("replica: backup: unexpected message %T", msg)
	}
	return nil, n.Backup.ShipEpoch(ctx, m.E, m.Entries)
}

// Close detaches the backup node.
func (n *BackupNode) Close() error { return n.conn.Close() }
