package mvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// testChain gives k a chain the way Stage finds one — the key's own, its row
// thawed, or a new one — without staging anything: for tests that write
// through the chain itself, which nothing outside a test may do.
func (s *Store) testChain(k kv.Key) *Chain {
	sh, m := s.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c := sh.chainOf(k, m); c != nil {
		return c
	}
	return sh.create(k, m)
}

func ts(epoch tstamp.Epoch, seq uint32, server uint16) tstamp.Timestamp {
	return tstamp.Make(epoch, seq, server)
}

func TestPutAndLatest(t *testing.T) {
	s := New()
	versions := []tstamp.Timestamp{ts(1, 1, 0), ts(1, 5, 0), ts(2, 1, 0)}
	for i, v := range versions {
		fn := functor.Value(kv.Value(fmt.Sprintf("v%d", i)))
		rec, err := s.Put("k", v, fn)
		if err != nil {
			t.Fatal(err)
		}
		rec.ResolveValue(FinalOutcome(fn))
	}
	s.SealAll(tstamp.Max)
	tests := []struct {
		name  string
		max   tstamp.Timestamp
		want  string
		found bool
	}{
		{name: "below all", max: ts(1, 0, 0), found: false},
		{name: "exact first", max: ts(1, 1, 0), want: "v0", found: true},
		{name: "between", max: ts(1, 3, 0), want: "v0", found: true},
		{name: "exact mid", max: ts(1, 5, 0), want: "v1", found: true},
		{name: "max", max: tstamp.Max, want: "v2", found: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, ok := s.Latest("k", tt.max)
			if ok != tt.found {
				t.Fatalf("found = %v, want %v", ok, tt.found)
			}
			if !ok {
				return
			}
			if got := string(r.Resolution().Value); got != tt.want {
				t.Errorf("value = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestPutDuplicateVersion(t *testing.T) {
	s := New()
	v := ts(1, 1, 0)
	first, err := s.Put("k", v, functor.Value(kv.Value("a")))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Put("k", v, functor.Value(kv.Value("b")))
	if err != ErrVersionExists {
		t.Fatalf("err = %v, want ErrVersionExists", err)
	}
	if second != first {
		t.Error("duplicate Put should return the existing record")
	}
}

func TestOutOfOrderInsert(t *testing.T) {
	s := New()
	order := []uint32{5, 2, 9, 1, 7, 3}
	for _, seq := range order {
		if _, err := s.Put("k", ts(1, seq, 0), functor.Add(int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	s.SealAll(tstamp.Max)
	view := s.View("k")
	if len(view) != len(order) {
		t.Fatalf("len(view) = %d, want %d", len(view), len(order))
	}
	for i := 1; i < len(view); i++ {
		if view[i-1].Version >= view[i].Version {
			t.Fatalf("view not sorted at %d", i)
		}
	}
}

func TestAt(t *testing.T) {
	s := New()
	v := ts(3, 7, 1)
	if _, ok := s.At("k", v); ok {
		t.Error("At on empty store should miss")
	}
	if _, err := s.Put("k", v, functor.Value(nil)); err != nil {
		t.Fatal(err)
	}
	if r, ok := s.At("k", v); !ok || r.Version != v {
		t.Error("At missed an existing version")
	}
	if _, ok := s.At("k", v+1); ok {
		t.Error("At found a non-existent version")
	}
}

func TestFinalOutcome(t *testing.T) {
	tests := []struct {
		fn    *functor.Functor
		kind  functor.ResolutionKind // zero: not a final f-type
		value string
	}{
		{fn: functor.Value(kv.Value("x")), kind: functor.Resolved, value: "x"},
		{fn: functor.Aborted(), kind: functor.ResolvedAborted},
		{fn: functor.Deleted(), kind: functor.ResolvedDeleted},
		{fn: functor.Add(1)},
		{fn: functor.User("h", nil, nil)},
	}
	for _, tt := range tests {
		if kind, value := FinalOutcome(tt.fn); kind != tt.kind || string(value) != tt.value {
			t.Errorf("%v: outcome = %v %q, want %v %q", tt.fn.Type, kind, value, tt.kind, tt.value)
		}
	}
}

func TestRecordsNotResolvedAtInsert(t *testing.T) {
	// Records must stay unresolved at insert so the coordinator's second
	// round can abort them (see FinalOutcome).
	s := New()
	for i, fn := range []*functor.Functor{
		functor.Value(kv.Value("x")), functor.Aborted(), functor.Deleted(), functor.Add(1),
	} {
		r, err := s.Put("k", ts(1, uint32(i+1), 0), fn)
		if err != nil {
			t.Fatal(err)
		}
		if r.Final() {
			t.Errorf("%v record resolved at insert", fn.Type)
		}
		if !r.Resolve(functor.AbortResolution("second round")) {
			t.Errorf("%v record could not be aborted post-insert", fn.Type)
		}
	}
}

func TestWatermark(t *testing.T) {
	s := New()
	if s.Chain("k") != nil {
		t.Error("a key never written has a chain")
	}
	// A watermark is a property of what was written: raising it does not
	// create the key.
	s.AdvanceWatermark("k", ts(1, 5, 0))
	if s.Chain("k") != nil || s.Len() != 0 {
		t.Fatal("AdvanceWatermark created a key nobody wrote")
	}
	c, _, _ := s.Stage("k", ts(1, 1, 0), functor.Add(1))
	s.AdvanceWatermark("k", ts(1, 5, 0))
	if c.Watermark() != ts(1, 5, 0) {
		t.Error("watermark not advanced")
	}
	s.AdvanceWatermark("k", ts(1, 2, 0)) // lower: no-op
	if c.Watermark() != ts(1, 5, 0) {
		t.Error("watermark regressed")
	}
	s.AdvanceWatermark("k", ts(2, 1, 0))
	if c.Watermark() != ts(2, 1, 0) {
		t.Error("watermark not advanced further")
	}
}

func TestRangeAndLen(t *testing.T) {
	s := New()
	keys := map[kv.Key]bool{"a": false, "b": false, "c": false}
	seq := uint32(1)
	for k := range keys {
		if _, err := s.Put(k, ts(1, seq, 0), functor.Value(nil)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	s.Range(func(k kv.Key, c *Chain) bool {
		keys[k] = true
		return true
	})
	for k, seen := range keys {
		if !seen {
			t.Errorf("Range missed key %q", k)
		}
	}
	n := 0
	s.Range(func(kv.Key, *Chain) bool { n++; return false })
	if n != 1 {
		t.Errorf("Range with early stop visited %d keys, want 1", n)
	}
}

func TestCompact(t *testing.T) {
	s := New()
	for seq := uint32(1); seq <= 10; seq++ {
		if _, err := s.Put("k", ts(1, seq, 0), functor.Value(kv.EncodeInt64(int64(seq)))); err != nil {
			t.Fatal(err)
		}
	}
	s.SealAll(tstamp.Max)
	s.AdvanceWatermark("k", ts(1, 10, 0))
	removed := s.Compact(ts(1, 8, 0))
	if removed != 6 {
		t.Errorf("removed = %d, want 6", removed)
	}
	// Newest record below the bound must survive for old snapshot reads.
	r, ok := s.Latest("k", ts(1, 7, 0))
	if !ok || r.Version != ts(1, 7, 0) {
		t.Errorf("latest <= seq7 after compact = %v, ok=%v", r, ok)
	}
	if _, ok := s.Latest("k", ts(1, 6, 0)); ok {
		t.Error("compacted record still visible")
	}
}

// TestCompactSkipsInvisibleRecords is the regression guard for a
// history-erasing compaction bug: when the newest record below the bound
// was an aborted (computed-ABORT) version, compaction collapsed the whole
// visible history onto that invisible record and the key read as
// not-found at every snapshot. The retained record must be the newest
// VISIBLE one below the bound.
func TestCompactSkipsInvisibleRecords(t *testing.T) {
	s := New()
	for seq := uint32(1); seq <= 5; seq++ {
		if _, err := s.Put("k", ts(1, seq, 0), functor.Value(kv.EncodeInt64(int64(seq)))); err != nil {
			t.Fatal(err)
		}
	}
	// seq 6 and 7: transactions whose functors computed to ABORTED (e.g. a
	// failed constraint); they sit in the chain but reads skip them.
	for seq := uint32(6); seq <= 7; seq++ {
		if _, err := s.Put("k", ts(1, seq, 0), functor.Aborted()); err != nil {
			t.Fatal(err)
		}
	}
	s.SealAll(tstamp.Max)
	for _, r := range s.View("k") {
		if r.Version > ts(1, 5, 0) {
			r.Resolve(functor.AbortResolution("constraint failed"))
		}
	}
	s.AdvanceWatermark("k", ts(1, 7, 0))

	// Compact past the whole history: the newest records below the bound
	// are the two aborted ones; the survivor must be visible seq 5.
	s.Compact(ts(2, 0, 0))
	view := s.View("k")
	if len(view) == 0 {
		t.Fatal("key vanished: compaction collapsed history onto an aborted record")
	}
	if view[0].Version != ts(1, 5, 0) {
		t.Fatalf("oldest surviving version = %v, want seq 5 (newest visible)", view[0].Version)
	}

	// All-invisible prefix: a key whose every record below the bound is
	// aborted compacts to empty — reads found nothing there before either.
	if _, err := s.Put("dead", ts(1, 1, 0), functor.Aborted()); err != nil {
		t.Fatal(err)
	}
	s.SealAll(tstamp.Max)
	for _, r := range s.View("dead") {
		r.Resolve(functor.AbortResolution("constraint failed"))
	}
	s.AdvanceWatermark("dead", ts(1, 2, 0))
	s.Compact(ts(2, 0, 0))
	if n := len(s.View("dead")); n != 0 {
		t.Errorf("all-aborted chain kept %d records after compaction", n)
	}
}

func TestCompactRespectsWatermark(t *testing.T) {
	s := New()
	for seq := uint32(1); seq <= 5; seq++ {
		if _, err := s.Put("k", ts(1, seq, 0), functor.Add(1)); err != nil {
			t.Fatal(err)
		}
	}
	s.SealAll(tstamp.Max)
	s.AdvanceWatermark("k", ts(1, 3, 0))
	// Bound above the watermark: compaction must clamp to the watermark so
	// unresolved records survive.
	s.Compact(tstamp.Max)
	view := s.View("k")
	// seq2 (newest final below the watermark), seq3..5 (at/above it) survive.
	if len(view) != 4 {
		t.Fatalf("len(view) = %d, want 4", len(view))
	}
	if view[0].Version != ts(1, 2, 0) {
		t.Errorf("oldest surviving version = %v, want %v", view[0].Version, ts(1, 2, 0))
	}
}

// TestCompactLeavesItsHorizonWhenCutShort: a Compact the watermark stops
// short of its bound leaves the bound with the chain, so that whoever moves
// the watermark can finish it; one that reaches its bound owes nothing.
func TestCompactLeavesItsHorizonWhenCutShort(t *testing.T) {
	s := New()
	for seq := uint32(1); seq <= 5; seq++ {
		if _, err := s.Put("k", ts(1, seq, 0), functor.Add(1)); err != nil {
			t.Fatal(err)
		}
	}
	s.SealAll(tstamp.Max)
	c := s.Chain("k")
	if got := c.Owed(); got != 0 {
		t.Fatalf("a chain never compacted owes %v", got)
	}
	c.AdvanceWatermark(ts(1, 3, 0))
	horizon := tstamp.Start(2)
	if removed := c.Compact(horizon); removed != 1 { // seq 1; seq 2 is the newest below the watermark
		t.Fatalf("removed %d behind the watermark, want 1", removed)
	}
	if got := c.Owed(); got != horizon {
		t.Fatalf("owed %v after a compaction cut short at the watermark, want %v", got, horizon)
	}
	c.AdvanceWatermark(tstamp.Start(3))
	if removed := c.Compact(c.Owed()); removed != 3 {
		t.Fatalf("removed %d once the watermark passed the horizon, want 3", removed)
	}
	if got := c.Owed(); got != 0 {
		t.Fatalf("owed %v after a compaction that reached its bound", got)
	}
	if view := c.View(); len(view) != 1 || view[0].Version != ts(1, 5, 0) {
		t.Fatalf("survivors %v, want seq 5 alone", versionsOf(view))
	}
}

// TestChainAgainstModel cross-checks chain behaviour against a simple
// reference model under random operations.
func TestChainAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	model := make(map[tstamp.Timestamp]int64)
	for i := 0; i < 2000; i++ {
		v := ts(tstamp.Epoch(rng.Intn(4)+1), uint32(rng.Intn(200)), uint16(rng.Intn(4)))
		val := rng.Int63()
		if _, err := s.Put("k", v, functor.Value(kv.EncodeInt64(val))); err == ErrVersionExists {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		model[v] = val
	}
	s.SealAll(tstamp.Max)
	sorted := make([]tstamp.Timestamp, 0, len(model))
	for v := range model {
		sorted = append(sorted, v)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	view := s.View("k")
	if len(view) != len(model) {
		t.Fatalf("chain has %d records, model %d", len(view), len(model))
	}
	for i, r := range view {
		if r.Version != sorted[i] {
			t.Fatalf("chain[%d] = %v, want %v", i, r.Version, sorted[i])
		}
	}
	for trial := 0; trial < 500; trial++ {
		max := ts(tstamp.Epoch(rng.Intn(5)), uint32(rng.Intn(220)), uint16(rng.Intn(5)))
		r, ok := s.Latest("k", max)
		// Reference: greatest model version <= max.
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > max })
		if i == 0 {
			if ok {
				t.Fatalf("Latest(%v) = %v, want miss", max, r.Version)
			}
			continue
		}
		want := sorted[i-1]
		if !ok || r.Version != want {
			t.Fatalf("Latest(%v) = %v ok=%v, want %v", max, r, ok, want)
		}
	}
}

func TestLatestProperty(t *testing.T) {
	f := func(seqs []uint32, probe uint32) bool {
		s := New()
		inserted := map[uint32]bool{}
		for _, q := range seqs {
			q &= tstamp.MaxSeq
			if _, err := s.Put("k", ts(1, q, 0), functor.Add(1)); err == nil {
				inserted[q] = true
			}
		}
		s.SealAll(tstamp.Max)
		probe &= tstamp.MaxSeq
		r, ok := s.Latest("k", ts(1, probe, 0))
		var want uint32
		var found bool
		for q := range inserted {
			if q <= probe && (!found || q > want) {
				want, found = q, true
			}
		}
		if found != ok {
			return false
		}
		return !found || r.Version == ts(1, want, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentInsertAndRead(t *testing.T) {
	// Writers stage in-epoch inserts while a sealer publishes them and
	// readers verify every published view is sorted — the full Figure-4
	// in-epoch/out-epoch lifecycle under concurrency.
	s := New()
	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(server uint16) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				if _, err := s.Put("hot", ts(1, uint32(i), server), functor.Add(1)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(uint16(w))
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // sealer
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.SealAll(tstamp.Max)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view := s.View("hot")
				for i := 1; i < len(view); i++ {
					if view[i-1].Version >= view[i].Version {
						t.Error("reader observed unsorted view")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	s.SealAll(tstamp.Max)
	if got := len(s.View("hot")); got != writers*perWriter {
		t.Errorf("final chain length = %d, want %d", got, writers*perWriter)
	}
}

func TestStagingInvisibleUntilSeal(t *testing.T) {
	s := New()
	if _, err := s.Put("k", ts(1, 1, 0), functor.Value(kv.Value("v"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Latest("k", tstamp.Max); ok {
		t.Error("staged record visible before seal")
	}
	if _, ok := s.At("k", ts(1, 1, 0)); !ok {
		t.Error("At must find staged records (second-round abort path)")
	}
	s.Seal("k", tstamp.End(1))
	if _, ok := s.Latest("k", tstamp.Max); !ok {
		t.Error("sealed record invisible")
	}
}

func TestSealRespectsBound(t *testing.T) {
	s := New()
	if _, err := s.Put("k", ts(1, 1, 0), functor.Add(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("k", ts(2, 1, 0), functor.Add(1)); err != nil { // straggler: next epoch
		t.Fatal(err)
	}
	s.Seal("k", tstamp.End(1))
	if got := len(s.View("k")); got != 1 {
		t.Fatalf("sealed %d records, want 1 (epoch-2 record must stay staged)", got)
	}
	s.Seal("k", tstamp.End(2))
	if got := len(s.View("k")); got != 2 {
		t.Fatalf("sealed %d records, want 2", got)
	}
}

func TestSealMergesStragglersSealedLate(t *testing.T) {
	// An epoch-2 record sealed after epoch 3's records forces the general
	// merge path; ordering must survive.
	s := New()
	if _, err := s.Put("k", ts(3, 1, 0), functor.Add(1)); err != nil {
		t.Fatal(err)
	}
	s.Seal("k", tstamp.End(3))
	if _, err := s.Put("k", ts(2, 1, 0), functor.Add(1)); err != nil {
		t.Fatal(err)
	}
	s.Seal("k", tstamp.End(3))
	view := s.View("k")
	if len(view) != 2 || view[0].Version != ts(2, 1, 0) || view[1].Version != ts(3, 1, 0) {
		t.Fatalf("merge broke ordering: %v", versionsOf(view))
	}
}

func versionsOf(recs []*Record) []tstamp.Timestamp {
	out := make([]tstamp.Timestamp, len(recs))
	for i, r := range recs {
		out[i] = r.Version
	}
	return out
}

func TestDuplicateAcrossStagedAndSealed(t *testing.T) {
	s := New()
	v := ts(1, 1, 0)
	first, err := s.Put("k", v, functor.Value(kv.Value("a")))
	if err != nil {
		t.Fatal(err)
	}
	s.Seal("k", tstamp.End(1))
	second, err := s.Put("k", v, functor.Value(kv.Value("b")))
	if err != ErrVersionExists || second != first {
		t.Errorf("sealed duplicate: err=%v same=%v", err, second == first)
	}
}

func TestConcurrentResolveExactlyOnce(t *testing.T) {
	s := New()
	r, err := s.Put("k", ts(1, 1, 0), functor.Add(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	wins := make(chan bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins <- r.Resolve(functor.ValueResolution(kv.EncodeInt64(1)))
		}()
	}
	wg.Wait()
	close(wins)
	count := 0
	for w := range wins {
		if w {
			count++
		}
	}
	if count != 1 {
		t.Errorf("%d goroutines won the resolve CAS, want exactly 1", count)
	}
}
