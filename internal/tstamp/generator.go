package tstamp

import (
	"errors"
	"sync/atomic"
)

// ErrEpochExhausted is returned when a server has drawn every sequence
// number of an epoch. With 2^28 sequence numbers per server per epoch this
// indicates a runaway loop rather than a realistic workload.
var ErrEpochExhausted = errors.New("tstamp: epoch sequence space exhausted")

// Generator issues globally unique timestamps for one server. It is safe
// for concurrent use: Next is a single atomic fetch-add.
//
// A generator is (re)targeted at an epoch with SetEpoch, typically when the
// front-end receives an authorization grant. In straggler mode (paper
// §III-C) the front-end targets the generator at the *next* epoch before
// holding its authorization; the packed-timestamp scheme then bounds every
// issued timestamp below that epoch's finish timestamp by construction.
type Generator struct {
	server uint16
	// state packs the target epoch (high 32 bits, though only 24 used)
	// and the next sequence number (low 32 bits, only 28 used) so that
	// SetEpoch and Next race safely: one 64-bit CAS/Add covers both.
	state atomic.Uint64
}

// NewGenerator returns a generator for the given server ID, initially
// targeted at epoch 0 (the data-loading epoch).
func NewGenerator(server uint16) *Generator {
	if server > MaxServer {
		panic("tstamp: server ID out of range")
	}
	return &Generator{server: server}
}

// Epoch returns the epoch the generator currently draws from.
func (g *Generator) Epoch() Epoch {
	return Epoch(g.state.Load() >> 32)
}

// SetEpoch retargets the generator at epoch e and resets the sequence
// counter. Retargeting at the current epoch is a no-op (the sequence space
// must not be reused). Moving backwards is rejected: timestamps must be
// monotone per server.
func (g *Generator) SetEpoch(e Epoch) {
	for {
		old := g.state.Load()
		if Epoch(old>>32) >= e {
			return
		}
		if g.state.CompareAndSwap(old, uint64(e)<<32) {
			return
		}
	}
}

// Next issues the next timestamp in the generator's current epoch.
func (g *Generator) Next() (Timestamp, error) {
	s := g.state.Add(1)
	seq := uint32(s & 0xffffffff)
	if seq > MaxSeq {
		return Zero, ErrEpochExhausted
	}
	return Make(Epoch(s>>32), seq, g.server), nil
}
