// Package obs is ALOHA-DB's progress-oriented diagnosis layer: the stall
// documents the flight recorder's stall rule captures (internal/obs/tsdb;
// paper §III-B — one laggard FE ack or severed link stalls visibility for
// every transaction in the epoch) and a hot-key/partition skew profiler
// that makes the paper's key-level concurrency control visible. The
// profiler follows internal/trace's convention: the disabled path is
// nil-receiver safe and allocation-free, so the engine hooks stay
// unconditional.
package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"alohadb/internal/metrics"
)

// SkewConfig configures the hot-key profiler.
type SkewConfig struct {
	// SampleEvery observes one access out of every SampleEvery (default
	// 64). 1 counts everything (tests); the stride keeps the hot path to
	// one atomic add per access.
	SampleEvery int
	// TopK is how many hot keys Snapshot reports (default 32).
	TopK int
	// Partitions sizes the per-partition access counters; accesses with a
	// partition outside [0,Partitions) only count toward key totals.
	Partitions int
}

// Skew is a sampling hot-key/partition profiler for the mvstore/processor
// hot path. A nil *Skew is valid and free: every method is a no-op, so
// servers keep their Observe calls unconditional (the tracer's pattern).
//
// Counting is stride sampling feeding a space-saving (Misra-Gries style)
// top-K table: each sampled access adds SampleEvery to its key's counter,
// so counters estimate true access counts; when the table is full the
// minimum entry is evicted and the newcomer inherits its count — the
// classic bounded-memory heavy-hitter guarantee.
type Skew struct {
	every      uint64
	topK       int
	cap        int
	partitions []atomic.Uint64

	tick     atomic.Uint64
	observed atomic.Uint64 // all Observe calls, sampled or not

	mu      sync.Mutex
	counts  map[string]uint64
	sampled uint64
}

// NewSkew builds a profiler. Zero-value config fields pick defaults.
func NewSkew(cfg SkewConfig) *Skew {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 32
	}
	capacity := 4 * cfg.TopK
	if capacity < 64 {
		capacity = 64
	}
	s := &Skew{
		every:  uint64(cfg.SampleEvery),
		topK:   cfg.TopK,
		cap:    capacity,
		counts: make(map[string]uint64, capacity),
	}
	if cfg.Partitions > 0 {
		s.partitions = make([]atomic.Uint64, cfg.Partitions)
	}
	return s
}

// Observe records one access of key on the given partition. Nil-safe; the
// unsampled path is one atomic increment and allocates nothing.
func (s *Skew) Observe(partition int, key string) {
	if s == nil {
		return
	}
	s.observed.Add(1)
	if s.tick.Add(1)%s.every != 0 {
		return
	}
	if partition >= 0 && partition < len(s.partitions) {
		s.partitions[partition].Add(1)
	}
	s.mu.Lock()
	s.sampled++
	if c, ok := s.counts[key]; ok {
		s.counts[key] = c + s.every
	} else if len(s.counts) < s.cap {
		s.counts[key] = s.every
	} else {
		// Space-saving eviction: replace the minimum and inherit its
		// count, so a newly hot key overtakes in O(hits) samples.
		minKey, minCount := "", uint64(0)
		first := true
		for k, c := range s.counts {
			if first || c < minCount {
				minKey, minCount, first = k, c, false
			}
		}
		delete(s.counts, minKey)
		s.counts[key] = minCount + s.every
	}
	s.mu.Unlock()
}

// HotKey is one entry of the top-K ranking; Count estimates true accesses
// (sampled hits scaled by the stride).
type HotKey struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
}

// PartitionLoad is one partition's estimated access count and share of the
// total.
type PartitionLoad struct {
	Partition int     `json:"partition"`
	Accesses  uint64  `json:"accesses"`
	Share     float64 `json:"share"`
}

// SkewSnapshot is the profiler's point-in-time view, served as JSON at
// /debug/hotkeys.
type SkewSnapshot struct {
	SampleEvery uint64 `json:"sample_every"`
	// Observed counts every Observe call; Sampled is how many fed the
	// top-K table.
	Observed uint64 `json:"observed"`
	Sampled  uint64 `json:"sampled"`
	// TopKeys is sorted by estimated count descending, key ascending on
	// ties (a stable golden-test order).
	TopKeys    []HotKey        `json:"top_keys"`
	Partitions []PartitionLoad `json:"partitions,omitempty"`
	// Imbalance is max/mean of per-partition accesses (1.0 = perfectly
	// even, 0 when nothing was sampled).
	Imbalance float64 `json:"imbalance"`
}

// Snapshot captures the current ranking. Nil-safe (returns zero value).
func (s *Skew) Snapshot() SkewSnapshot {
	if s == nil {
		return SkewSnapshot{}
	}
	snap := SkewSnapshot{
		SampleEvery: s.every,
		Observed:    s.observed.Load(),
	}
	s.mu.Lock()
	snap.Sampled = s.sampled
	keys := make([]HotKey, 0, len(s.counts))
	for k, c := range s.counts {
		keys = append(keys, HotKey{Key: k, Count: c})
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Count != keys[j].Count {
			return keys[i].Count > keys[j].Count
		}
		return keys[i].Key < keys[j].Key
	})
	if len(keys) > s.topK {
		keys = keys[:s.topK]
	}
	snap.TopKeys = keys
	if n := len(s.partitions); n > 0 {
		var total, max uint64
		snap.Partitions = make([]PartitionLoad, n)
		for i := range s.partitions {
			c := s.partitions[i].Load() * s.every
			snap.Partitions[i] = PartitionLoad{Partition: i, Accesses: c}
			total += c
			if c > max {
				max = c
			}
		}
		if total > 0 {
			for i := range snap.Partitions {
				snap.Partitions[i].Share = float64(snap.Partitions[i].Accesses) / float64(total)
			}
			mean := float64(total) / float64(n)
			snap.Imbalance = float64(max) / mean
		}
	}
	return snap
}

// Skew metric family names.
const (
	FamSkewObserved  = "aloha_skew_observed_total"
	FamSkewSampled   = "aloha_skew_sampled_total"
	FamSkewPartition = "aloha_skew_partition_accesses"
	FamSkewImbalance = "aloha_skew_imbalance_ratio"
	FamSkewHotKey    = "aloha_skew_hot_key_accesses"
	skewHotKeyGauges = 8 // top keys exported as gauges (full list on /debug/hotkeys)
)

// MetricFamilies renders the profiler as aloha_skew_* gauges. Nil-safe.
func (s *Skew) MetricFamilies() []metrics.Family {
	if s == nil {
		return nil
	}
	snap := s.Snapshot()
	fams := []metrics.Family{
		{
			Name: FamSkewObserved, Help: "Key accesses seen by the skew profiler (sampled or not).",
			Kind:   metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(snap.Observed)},
		},
		{
			Name: FamSkewSampled, Help: "Key accesses sampled into the hot-key table.",
			Kind:   metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(snap.Sampled)},
		},
		{
			Name: FamSkewImbalance, Help: "Max/mean of estimated per-partition accesses (1.0 = even).",
			Kind:   metrics.KindGauge,
			Series: []metrics.Series{metrics.GaugeSeries(int64(snap.Imbalance * 1000))},
		},
	}
	if len(snap.Partitions) > 0 {
		fam := metrics.Family{
			Name: FamSkewPartition, Help: "Estimated accesses per partition (sampled, scaled by the stride).",
			Kind: metrics.KindGauge,
		}
		for _, p := range snap.Partitions {
			fam.Series = append(fam.Series,
				metrics.GaugeSeries(int64(p.Accesses), metrics.Label{Key: "partition", Value: strconv.Itoa(p.Partition)}))
		}
		fams = append(fams, fam)
	}
	if len(snap.TopKeys) > 0 {
		top := snap.TopKeys
		if len(top) > skewHotKeyGauges {
			top = top[:skewHotKeyGauges]
		}
		fam := metrics.Family{
			Name: FamSkewHotKey, Help: "Estimated accesses of the hottest keys.",
			Kind: metrics.KindGauge,
		}
		for _, hk := range top {
			fam.Series = append(fam.Series,
				metrics.GaugeSeries(int64(hk.Count), metrics.Label{Key: "key", Value: hk.Key}))
		}
		fams = append(fams, fam)
	}
	return fams
}
