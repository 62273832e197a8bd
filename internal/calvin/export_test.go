package calvin

import (
	"fmt"
	"time"

	"alohadb/internal/kv"
)

// Wait blocks until the transaction finished on every participant.
func (h *Handle) Wait() { <-h.done }

// Latency returns issue-to-completion time (valid after Wait).
func (h *Handle) Latency() time.Duration { return h.finishedAt.Sub(h.issuedAt) }

// startManual is Start without the sequencer's timer: batches flush only
// through AdvanceEpoch, so a test decides what each batch holds.
func (c *Cluster) startManual() error {
	if c.started {
		return fmt.Errorf("calvin: cluster already started")
	}
	c.started = true
	return nil
}

// AdvanceEpoch flushes the sequencer's current batch.
func (c *Cluster) AdvanceEpoch() { c.seq.flush() }

// get reads a key directly from the single-version store.
func (p *partition) get(k kv.Key) (kv.Value, bool) {
	p.storeMu.RLock()
	defer p.storeMu.RUnlock()
	v, ok := p.store[k]
	return v, ok
}
