package calvin

import (
	"time"

	"alohadb/internal/kv"
)

// Wait blocks until the transaction finished on every participant.
func (h *Handle) Wait() { <-h.done }

// Latency returns issue-to-completion time (valid after Wait).
func (h *Handle) Latency() time.Duration { return h.finishedAt.Sub(h.issuedAt) }

// AdvanceEpoch flushes the sequencer's current batch (manual mode).
func (c *Cluster) AdvanceEpoch() { c.seq.flush() }

// get reads a key directly from the single-version store.
func (p *partition) get(k kv.Key) (kv.Value, bool) {
	p.storeMu.RLock()
	defer p.storeMu.RUnlock()
	v, ok := p.store[k]
	return v, ok
}
