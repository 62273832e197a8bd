package wal

import (
	"alohadb/internal/functor"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

// Recover rebuilds one server's store from its log: replay every install
// and abort whose epoch is durably committed, discard everything newer (an
// epoch without its committed marker never became visible), and return the
// last committed epoch so the cluster can restart at the next one.
func Recover(path string) (*mvstore.Store, tstamp.Epoch, error) { return RecoverFull("", path) }

// replayCommitted applies the log's committed-epoch entries above floor (a
// checkpoint's bound; Zero without one) to store and returns the last
// committed epoch.
func replayCommitted(store *mvstore.Store, path string, floor tstamp.Timestamp) (tstamp.Epoch, error) {
	// Pass 1: find the last committed epoch.
	var last tstamp.Epoch
	if err := Replay(path, func(e Entry) error {
		if e.Kind == KindEpochCommitted && e.Epoch > last {
			last = e.Epoch
		}
		return nil
	}); err != nil {
		return 0, err
	}
	// Pass 2: apply committed-epoch entries, sealing what each epoch touched
	// at its marker as the live path does at Committed. Left staged until
	// the end, a hot key's versions would each be checked against all the
	// staged ones before it: quadratic in the chain.
	bound := tstamp.End(last)
	skip := func(v tstamp.Timestamp) bool { return v >= bound || v <= floor }
	var touched []*mvstore.Chain
	err := Replay(path, func(e Entry) error {
		switch e.Kind {
		case KindInstall:
			if skip(e.Version) {
				return nil // uncommitted epoch, or covered by the checkpoint
			}
			if c, _, err := store.Stage(e.Key, e.Version, e.Functor); err == nil {
				touched = append(touched, c)
			}
		case KindAbort:
			if skip(e.Version) {
				return nil
			}
			for _, k := range e.Keys {
				if rec, ok := store.At(k, e.Version); ok {
					rec.Resolve(functor.AbortedByPeer)
				}
			}
		case KindEpochCommitted:
			if e.Epoch > last {
				return nil
			}
			for _, c := range touched {
				c.Seal(tstamp.End(e.Epoch))
			}
			clear(touched)
			touched = touched[:0]
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	// Publish what the markers left staged: a straggler of epoch e+1 logged
	// ahead of e's marker is not in the touched set when e+1's marker comes.
	store.SealAll(bound)
	return last, nil
}
