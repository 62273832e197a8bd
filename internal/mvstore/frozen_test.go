package mvstore

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// holdsPointers reports whether a value of type t holds anything the
// collector would have to scan.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.Slice:
		return true
	}
	return false
}

// TestFrozenRunHoldsNoPointer: a run is a header of slices, and what they
// point at holds no pointer, so the collector never scans a frozen version.
func TestFrozenRunHoldsNoPointer(t *testing.T) {
	rt := reflect.TypeOf(run{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Errorf("run.%s is a %v, not a slice of pointer-free elements", f.Name, f.Type)
			continue
		}
		if holdsPointers(f.Type.Elem()) {
			t.Errorf("run.%s holds %v, which has a pointer: the collector would scan every run", f.Name, f.Type.Elem())
		}
	}
	if !holdsPointers(reflect.TypeOf(Record{})) {
		t.Fatal("holdsPointers misses the pointers of a Record")
	}
}

// history writes versions 1..n of k, one per epoch, with a value, an abort
// reason or dependent writes as freezeOutcome draws them, computed and below
// the watermark; the chain is returned unfrozen.
func history(t *testing.T, s *Store, k kv.Key, n int) *Chain {
	t.Helper()
	var c *Chain
	for i := 1; i <= n; i++ {
		v := ts(tstamp.Epoch(i), 1, 0)
		ch, rec, err := s.Stage(k, v, functor.Value(nil))
		if err != nil {
			t.Fatal(err)
		}
		c = ch
		c.Seal(tstamp.End(tstamp.Epoch(i)))
		rec.Resolve(freezeOutcome(i))
		c.AdvanceWatermark(v)
	}
	return c
}

// freezeOutcome is the outcome of ordinal i in the histories these tests
// write: every shape a record can hold.
func freezeOutcome(i int) *functor.Resolution {
	switch {
	case i%5 == 3:
		return functor.AbortResolution(fmt.Sprintf("aborted at %d", i))
	case i%7 == 2:
		return &functor.Resolution{Kind: functor.Resolved, Value: kv.EncodeInt64(int64(i)), DependentWrites: []functor.DependentWrite{
			{Key: kv.Key(fmt.Sprintf("row:%d", i)), Value: kv.Value("written")},
			{Key: kv.Key(fmt.Sprintf("gone:%d", i)), Delete: true},
		}}
	case i%11 == 4:
		return functor.SkipResolution()
	}
	return functor.ValueResolution(kv.EncodeInt64(int64(i)))
}

// TestViewCountsWholeHistory: freezing changes how a history is held, not
// what it is. Store.View, ExportKey, Latest and At still see every version —
// so the chain-length figures taken through Store.View keep their meaning —
// while Chain.View holds the records alone and still ends with the newest.
func TestViewCountsWholeHistory(t *testing.T) {
	const n = 100
	s := New()
	c := history(t, s, "k", n)
	newest := c.View()[n-1]
	frozen := c.Freeze()
	if frozen != n-1 {
		t.Fatalf("Freeze moved %d versions, want all but the newest: %d", frozen, n-1)
	}
	if view := c.View(); len(view) != 1 || view[0] != newest {
		t.Fatalf("Chain.View holds %d records after the freeze, want the newest alone", len(view))
	}
	view := s.View("k")
	if len(view) != n {
		t.Fatalf("Store.View has %d versions, want %d", len(view), n)
	}
	recs, _, _ := s.ExportKey("k")
	if len(recs) != n {
		t.Fatalf("ExportKey has %d versions, want %d", len(recs), n)
	}
	for i, rec := range view {
		want := freezeOutcome(i + 1)
		if rec.Version != ts(tstamp.Epoch(i+1), 1, 0) || !sameOutcome(rec.Resolution(), want) || !sameOutcome(recs[i].Resolution, want) {
			t.Fatalf("version %d: %v %+v, export %+v; want %+v", i+1, rec.Version, rec.Resolution(), recs[i].Resolution, want)
		}
		if at, ok := s.At("k", rec.Version); !ok || !sameOutcome(at.Resolution(), want) {
			t.Fatalf("At(%v) = %+v", rec.Version, at)
		}
		if latest, ok := s.Latest("k", rec.Version); !ok || latest.Version != rec.Version {
			t.Fatalf("Latest(%v) = %v", rec.Version, latest)
		}
	}
	if st := s.Stats(); st.FrozenVersions != n-1 || st.FrozenBytes == 0 {
		t.Fatalf("Stats %+v, want %d versions frozen", st, n-1)
	}
	// The one accessor of both tiers, as the read and compute paths walk
	// it, allocates nothing.
	sink := 0
	if allocs := testing.AllocsPerRun(10, func() {
		h := c.History()
		for i := h.Search(tstamp.Max) - 1; i >= 0; i-- {
			kind, value := h.Outcome(i)
			sink += int(kind) + len(value) + int(h.Version(i).Seq())
		}
	}); allocs != 0 {
		t.Fatalf("walking a history of %d versions allocates %.0f objects", n, allocs)
	}
	// A second freeze finds nothing to do until half the records can go.
	if got := c.Freeze(); got != 0 {
		t.Fatalf("a second Freeze moved %d versions", got)
	}
}

// TestFreezeConcurrent runs a writer that stages, seals, computes, raises
// the watermark, freezes and compacts one key while readers walk it through
// History, Latest, Chain.View and Store.View. Versions are consecutive
// ordinals, so a reader that got the run of one moment and the records of
// another would see a version twice or a gap. Run under -race it also shows
// that no published run byte or slot is ever written again.
func TestFreezeConcurrent(t *testing.T) {
	const (
		epochs = 2000
		perE   = 4
	)
	s := New()
	ordinal := func(v tstamp.Timestamp) int { return int(v.Epoch()-1)*perE + int(v.Seq()) }
	var (
		stop    atomic.Bool
		readers sync.WaitGroup
	)
	check := func(c *Chain) error {
		h := c.History()
		for i := 0; i < h.Len(); i++ {
			o := ordinal(h.Version(i))
			if i > 0 && o != ordinal(h.Version(i-1))+1 {
				return fmt.Errorf("history jumps from %v to %v at %d (%d frozen)", h.Version(i-1), h.Version(i), i, h.Frozen())
			}
			kind, value := h.Outcome(i)
			if kind == 0 {
				if i < h.Frozen() {
					return fmt.Errorf("frozen version %v is not final", h.Version(i))
				}
				continue
			}
			if want := freezeOutcome(o); kind != want.Kind || !bytes.Equal(value, want.Value) {
				return fmt.Errorf("version %v reads %v %q, want %v %q", h.Version(i), kind, value, want.Kind, want.Value)
			}
		}
		if n := h.Len(); n > 0 {
			// Compaction never drops a chain's newest version.
			if v, rec := h.Version(n-1), c.Latest(tstamp.Max); rec == nil || rec.Version < v {
				return fmt.Errorf("Latest = %v after a history ending at %v", rec, v)
			}
			rec := h.materialize(n / 2)
			if res := rec.Resolution(); res != nil && !sameOutcome(res, freezeOutcome(ordinal(rec.Version))) {
				return fmt.Errorf("version %v resolves to %+v", rec.Version, res)
			}
		}
		view := c.View()
		for i := 1; i < len(view); i++ {
			if view[i-1].Version >= view[i].Version {
				return fmt.Errorf("Chain.View unsorted at %d", i)
			}
		}
		all := s.View("k")
		for i := 1; i < len(all); i++ {
			if ordinal(all[i].Version) != ordinal(all[i-1].Version)+1 {
				return fmt.Errorf("Store.View jumps from %v to %v", all[i-1].Version, all[i].Version)
			}
		}
		return nil
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				c, _, _ := s.Read("k", 0)
				if c == nil {
					continue
				}
				if err := check(c); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	froze, compacted := 0, 0
	for e := tstamp.Epoch(1); e <= epochs && !t.Failed(); e++ {
		var (
			c    *Chain
			recs []*Record
		)
		for seq := uint32(1); seq <= perE; seq++ {
			ch, rec, err := s.Stage("k", ts(e, seq, 0), functor.Value(nil))
			if err != nil {
				t.Fatal(err)
			}
			c, recs = ch, append(recs, rec)
		}
		c.Seal(tstamp.End(e))
		for _, rec := range recs {
			rec.Resolve(freezeOutcome(ordinal(rec.Version)))
		}
		c.AdvanceWatermark(tstamp.End(e) - 1)
		froze += c.Freeze()
		if e%7 == 0 {
			compacted += c.Compact(tstamp.Start(e - e%23))
		}
	}
	stop.Store(true)
	readers.Wait()
	t.Logf("%d versions frozen, %d compacted", froze, compacted)
	if froze == 0 || compacted == 0 {
		t.Fatal("the writer no longer both freezes and compacts")
	}
	if c := s.Chain("k"); c != nil {
		if err := check(c); err != nil {
			t.Fatal(err)
		}
	}
}
