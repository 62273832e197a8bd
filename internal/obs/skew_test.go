package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// TestSkewGoldenOrdering pins the /debug/hotkeys JSON shape and ordering:
// count descending, key ascending on ties.
func TestSkewGoldenOrdering(t *testing.T) {
	s := NewSkew(SkewConfig{SampleEvery: 1, TopK: 3, Partitions: 2})
	for i := 0; i < 5; i++ {
		s.Observe(0, "hot")
	}
	for i := 0; i < 3; i++ {
		s.Observe(1, "warm-b")
	}
	for i := 0; i < 3; i++ {
		s.Observe(1, "warm-a")
	}
	s.Observe(0, "cold")

	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap SkewSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b)
	}

	golden := `{"sample_every":1,"observed":12,"sampled":12,"top_keys":[{"key":"hot","count":5},{"key":"warm-a","count":3},{"key":"warm-b","count":3}],"partitions":[{"partition":0,"accesses":6,"share":0.5},{"partition":1,"accesses":6,"share":0.5}],"imbalance":1}`
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Fatalf("snapshot mismatch\n got: %s\nwant: %s", got, golden)
	}
}

// TestSkewZipfianTopKey checks sampling accuracy: on a Zipfian workload the
// profiler must recover the true hottest key despite a 16x stride.
func TestSkewZipfianTopKey(t *testing.T) {
	s := NewSkew(SkewConfig{SampleEvery: 16, TopK: 8, Partitions: 4})
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.2, 1, 9999)
	const accesses = 400000
	for i := 0; i < accesses; i++ {
		id := zipf.Uint64()
		s.Observe(int(id%4), fmt.Sprintf("key-%d", id))
	}
	snap := s.Snapshot()
	if snap.Observed != accesses {
		t.Fatalf("observed = %d, want %d", snap.Observed, accesses)
	}
	if snap.Sampled != accesses/16 {
		t.Fatalf("sampled = %d, want %d", snap.Sampled, accesses/16)
	}
	if len(snap.TopKeys) == 0 {
		t.Fatal("no top keys")
	}
	if snap.TopKeys[0].Key != "key-0" {
		t.Fatalf("top-1 key = %q (count %d), want key-0; top: %+v",
			snap.TopKeys[0].Key, snap.TopKeys[0].Count, snap.TopKeys[:4])
	}
	// The estimate should be within a factor of 2 of the true count (the
	// stride is 16, and key-0 draws about a fifth of a Zipf(1.2) stream).
	var true0 uint64
	rng2 := rand.New(rand.NewSource(42))
	zipf2 := rand.NewZipf(rng2, 1.2, 1, 9999)
	for i := 0; i < accesses; i++ {
		if zipf2.Uint64() == 0 {
			true0++
		}
	}
	est := snap.TopKeys[0].Count
	if est < true0/2 || est > true0*2 {
		t.Fatalf("key-0 estimate %d outside [%d,%d]", est, true0/2, true0*2)
	}
}

// TestSkewEviction fills the table past capacity and checks the
// space-saving property: a newly hot key still surfaces in the top-K.
func TestSkewEviction(t *testing.T) {
	s := NewSkew(SkewConfig{SampleEvery: 1, TopK: 4})
	for i := 0; i < s.cap+32; i++ {
		s.Observe(0, fmt.Sprintf("filler-%d", i))
	}
	for i := 0; i < 100; i++ {
		s.Observe(0, "late-hot")
	}
	snap := s.Snapshot()
	found := false
	for _, hk := range snap.TopKeys {
		if hk.Key == "late-hot" {
			found = true
		}
	}
	if !found {
		t.Fatalf("late-hot missing from top keys: %+v", snap.TopKeys)
	}
}

// TestSkewDisabledZeroAlloc is the CI guard for the disabled path: a nil
// profiler and a sampled-out observe must not allocate.
func TestSkewDisabledZeroAlloc(t *testing.T) {
	var nilSkew *Skew
	if n := testing.AllocsPerRun(1000, func() {
		nilSkew.Observe(0, "k")
	}); n != 0 {
		t.Fatalf("nil Skew.Observe allocates %v/op", n)
	}
	s := NewSkew(SkewConfig{SampleEvery: 1 << 30, Partitions: 4})
	if n := testing.AllocsPerRun(1000, func() {
		s.Observe(1, "k")
	}); n != 0 {
		t.Fatalf("sampled-out Skew.Observe allocates %v/op", n)
	}
}

// BenchmarkSkewDisabledObserve backs the CI "0 allocs/op" grep guard for
// the fully disabled (nil) profiler.
func BenchmarkSkewDisabledObserve(b *testing.B) {
	var s *Skew
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(0, "bench-key")
	}
}

// BenchmarkSkewSampledOutObserve measures the enabled-but-unsampled hot
// path: one atomic add, zero allocations.
func BenchmarkSkewSampledOutObserve(b *testing.B) {
	s := NewSkew(SkewConfig{SampleEvery: 1 << 30, Partitions: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(3, "bench-key")
	}
}

func TestSkewNilSnapshot(t *testing.T) {
	var s *Skew
	if snap := s.Snapshot(); snap.Observed != 0 || len(snap.TopKeys) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	if fams := s.MetricFamilies(); fams != nil {
		t.Fatalf("nil MetricFamilies = %v", fams)
	}
}
