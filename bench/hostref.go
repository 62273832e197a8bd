package main

import (
	"encoding/binary"
	"syscall"
	"time"
)

// hostRef is the run's yardstick for the speed of the host: the time one
// dependent load takes that misses every cache. The sandbox is a few
// processors of a shared machine whose memory speed wanders by a fifth over
// tens of minutes, and every workload here follows it (README, *Host
// reference*): throughput divided by this reading repeats about twice as
// well as throughput alone. It is read while no cluster is running, from the
// benchmark's own memory, so no change to the engine can move it.
type hostRef struct {
	table []byte // hostRefEntries little-endian uint32: entry i holds the index to load next
	at    uint32
	loads int
	spent time.Duration
}

// The table is 64 MB, well past the processor's caches, and lives outside
// the Go heap: inside it, it would raise the collector's goal for a fresh
// cluster's ~40 MB severalfold and change the throughput it is there to
// steady (with the table in a slice, neworder-tcp read 30 % faster).
const hostRefEntries = 1 << 24

func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, hostRefEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	// A linear congruential step with full period (multiplier ≡ 1 mod 4, odd
	// increment): following the entries visits all of them, in an order no
	// prefetcher predicts.
	for i := uint32(0); i < hostRefEntries; i++ {
		binary.LittleEndian.PutUint32(mem[4*i:], (i*1664525+1013904223)%hostRefEntries)
	}
	return &hostRef{table: mem}, nil
}

// sample follows the table for loads steps, continuing where the last
// sample stopped.
func (h *hostRef) sample(loads int) {
	start := time.Now()
	at := h.at
	for i := 0; i < loads; i++ {
		at = binary.LittleEndian.Uint32(h.table[4*at:])
	}
	h.at = at
	h.loads += loads
	h.spent += time.Since(start)
}

// loadNs is the mean time of one load over every sample taken.
func (h *hostRef) loadNs() float64 {
	return ratio(float64(h.spent.Nanoseconds()), float64(h.loads))
}

func (h *hostRef) close() error { return syscall.Munmap(h.table) }
