package mvstore

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
)

func TestResolveOnce(t *testing.T) {
	s := New()
	r, err := s.Put("k", ts(1, 1, 0), functor.Add(1))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Resolve(functor.ValueResolution(kv.EncodeInt64(1))) {
		t.Fatal("first Resolve should win")
	}
	if r.Resolve(functor.AbortResolution("late")) || r.ResolveValue(functor.ResolvedDeleted, nil) {
		t.Fatal("a later Resolve should lose")
	}
	if kind, value, ext := r.Outcome(); kind != functor.Resolved || !bytes.Equal(value, kv.EncodeInt64(1)) || ext != nil {
		t.Errorf("outcome changed after a losing Resolve: %v %q %v", kind, value, ext)
	}
}

// keptBehindExt is what a record that res won holds in ext: res itself when
// it carries a reason or dependent writes, nothing for a plain outcome.
func keptBehindExt(res *functor.Resolution) *functor.Resolution {
	if res.Reason == "" && len(res.DependentWrites) == 0 {
		return nil
	}
	return res
}

// TestResolveRace races Resolve calls carrying every shape of outcome on one
// record while readers spin on Outcome. Claim-then-publish must let exactly
// one win, show readers nothing or the whole winner — never one outcome's
// kind with another's value or ext — and hold every loser until the winner
// is readable.
func TestResolveRace(t *testing.T) {
	// Each candidate's value names it, so a torn read is recognisable.
	candidates := []*functor.Resolution{
		functor.ValueResolution(kv.Value("plain-0")),
		functor.DeleteResolution(),
		functor.AbortResolution("constraint"),
		{Kind: functor.Resolved, Value: kv.Value("det-3"), DependentWrites: []functor.DependentWrite{{Key: "row", Value: kv.Value("r")}}},
		functor.ValueResolution(kv.Value("plain-4")),
		functor.SkipResolution(),
		functor.AbortResolution(""),
		{Kind: functor.ResolvedDeleted, Reason: "why"},
	}
	// whole reports whether (kind, value, ext) is exactly what cand installs.
	whole := func(cand *functor.Resolution, kind functor.ResolutionKind, value kv.Value, ext *functor.Resolution) bool {
		return kind == cand.Kind && bytes.Equal(value, cand.Value) && (value == nil) == (cand.Value == nil) && ext == keptBehindExt(cand)
	}
	for round := 0; round < 200; round++ {
		rec := new(Record)
		var (
			start   = make(chan struct{})
			stop    atomic.Bool
			winners atomic.Int32
			wg      sync.WaitGroup
			readers sync.WaitGroup
		)
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				var seen *functor.Resolution
				for !stop.Load() {
					kind, value, ext := rec.Outcome()
					if kind == 0 {
						if value != nil || ext != nil || seen != nil {
							t.Errorf("round %d: unresolved record shows value %q ext %v (resolved before: %v)", round, value, ext, seen != nil)
							return
						}
						runtime.Gosched() // two processors: let the writers in
						continue
					}
					var match *functor.Resolution
					for _, cand := range candidates {
						if whole(cand, kind, value, ext) {
							match = cand
						}
					}
					if match == nil {
						t.Errorf("round %d: torn outcome %v %q ext %+v", round, kind, value, ext)
						return
					}
					if seen != nil && !whole(seen, kind, value, ext) {
						t.Errorf("round %d: outcome changed from %+v to %+v", round, seen, match)
						return
					}
					seen = match
					runtime.Gosched()
				}
			}()
		}
		for _, cand := range candidates {
			wg.Add(1)
			go func(cand *functor.Resolution) {
				defer wg.Done()
				<-start
				won := rec.Resolve(cand)
				if won {
					winners.Add(1)
				}
				// Winner or loser, the installed outcome is readable now.
				kind, value, ext := rec.Outcome()
				if kind == 0 || !rec.Final() || rec.Resolution() == nil {
					t.Errorf("round %d: Resolve returned %v with the outcome not readable", round, won)
				} else if won && !whole(cand, kind, value, ext) {
					t.Errorf("round %d: Resolve won but the record holds %v %q %+v", round, kind, value, ext)
				}
			}(cand)
		}
		close(start)
		wg.Wait()
		stop.Store(true)
		readers.Wait()
		if n := winners.Load(); n != 1 {
			t.Fatalf("round %d: %d Resolve calls won, want exactly 1", round, n)
		}
	}
}
