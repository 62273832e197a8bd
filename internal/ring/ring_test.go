package ring

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// model is the reference: per slot, the newest seq written there and its
// value, plus the overwrite and stale counts.
type model struct {
	n                  uint64
	slots              map[uint64][2]uint64 // seq % n -> {seq, value}
	overwritten, stale uint64
}

// write applies one update of seq and reports whether it landed. An Add
// stores seq*1000; a Lock adds one to the value, which a claim of the slot
// resets to 0.
func (m *model) write(seq uint64, add bool) bool {
	cur, ok := m.slots[seq%m.n]
	if ok && cur[0] > seq {
		m.stale++
		return false
	}
	if ok && cur[0] < seq {
		m.overwritten++
	}
	if !ok || cur[0] < seq {
		cur = [2]uint64{seq, 0}
	}
	if add {
		cur[1] = seq * 1000
	} else {
		cur[1]++
	}
	m.slots[seq%m.n] = cur
	return true
}

func (m *model) snapshot() []uint64 {
	var es [][2]uint64
	for _, e := range m.slots {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	out := []uint64{}
	for _, e := range es {
		out = append(out, e[1])
	}
	return out
}

// TestRingModel runs random Adds, Locks of new, repeated, wrapping and
// stale seqs, Gets and Snapshots against the model.
func TestRingModel(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		rng := rand.New(rand.NewPCG(uint64(n), 7))
		r := New(n, func(v *uint64) { *v = 0 })
		m := &model{n: uint64(n), slots: map[uint64][2]uint64{}}
		var next, high uint64 // Add's arrival count; the highest seq written
		for op := 0; op < 20000; op++ {
			switch k := rng.IntN(10); {
			case k < 2: // Add: the ring's own count, which Locks may have passed
				next++
				r.Add(next * 1000)
				m.write(next, true)
				high = max(high, next)
			case k < 8: // Lock a seq around Add's: new, repeated, wrapping or stale
				seq := max(1, next+uint64(rng.IntN(2*n+2))-min(next, uint64(n)))
				s := r.Lock(seq)
				if landed := m.write(seq, false); landed != (s != nil) {
					t.Fatalf("n=%d op %d: Lock(%d) landed=%v, model says %v", n, op, seq, s != nil, landed)
				}
				if s != nil {
					s.Val++
					s.Unlock()
				}
				high = max(high, seq)
			case k < 9:
				seq := uint64(rng.IntN(int(high) + 2))
				v, ok := r.Get(seq)
				cur, held := m.slots[seq%m.n]
				want := held && seq != 0 && cur[0] == seq
				if ok != want || (ok && v != cur[1]) {
					t.Fatalf("n=%d op %d: Get(%d) = %d, %v; model holds %v", n, op, seq, v, ok, cur)
				}
			default:
				vals, over := r.Snapshot()
				if want := m.snapshot(); !slices.Equal(vals, want) || over != m.overwritten {
					t.Fatalf("n=%d op %d: Snapshot = %v, %d overwritten; model %v, %d", n, op, vals, over, want, m.overwritten)
				}
				if r.Stale() != m.stale {
					t.Fatalf("n=%d op %d: Stale = %d, model %d", n, op, r.Stale(), m.stale)
				}
			}
		}
	}
}

// TestRingConcurrent races writers on overlapping seqs against snapshots:
// under -race it checks the slot locking, and each value carries its own
// seq, so a torn value shows.
func TestRingConcurrent(t *testing.T) {
	type val struct{ seq, a, b uint64 }
	const writers, seqs = 4, 3000
	locked := New(16, func(v *val) { *v = val{} })
	added := New[val](16, nil)
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= seqs; i++ {
				if s := locked.Lock(i); s != nil { // every writer writes every seq
					s.Val.seq = i
					s.Val.a++
					s.Val.b += 2
					s.Unlock()
				}
				added.Add(val{seq: i, a: i * 3, b: i * 5})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func() {
		vals, _ := locked.Snapshot()
		for i, v := range vals {
			if v.b != 2*v.a || v.a == 0 || (i > 0 && v.seq <= vals[i-1].seq) {
				t.Fatalf("torn or misordered locked value %d: %+v", i, v)
			}
		}
		vals, _ = added.Snapshot()
		for _, v := range vals {
			if v.a != 3*v.seq || v.b != 5*v.seq {
				t.Fatalf("torn added value: %+v", v)
			}
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check()
	}
	vals, over := locked.Snapshot()
	if len(vals) != 16 || vals[0].seq != seqs-15 || vals[15].seq != seqs {
		t.Fatalf("locked ring holds %+v, want seqs %d..%d", vals, seqs-15, seqs)
	}
	// A writer claims seq before seq+16, so every seq was claimed once.
	if over != seqs-16 {
		t.Fatalf("overwritten = %d, want %d", over, seqs-16)
	}
	if _, over := added.Snapshot(); over != writers*seqs-added.Stale()-16 {
		t.Fatalf("added ring overwrote %d of %d adds, %d stale", over, writers*seqs, added.Stale())
	}
}

// BenchmarkRingLock is the journal's record path: lock an epoch's slot,
// update it in place, unlock. 0 allocs/op, CI-enforced.
func BenchmarkRingLock(b *testing.B) {
	r := New(512, func(v *[4]uint64) { *v = [4]uint64{} })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i%100) + 1
		if s := r.Lock(seq); s != nil {
			s.Val[0]++
			s.Unlock()
		}
	}
}

// BenchmarkRingAdd is the span sink's path. 0 allocs/op, CI-enforced.
func BenchmarkRingAdd(b *testing.B) {
	r := New[[4]uint64](4096, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add([4]uint64{uint64(i)})
	}
}
