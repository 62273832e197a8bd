package journal

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// at returns a wall-clock stamp offset ms milliseconds from a fixed base,
// so stage durations in tests are exact.
func at(ms int) time.Time {
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	return base.Add(time.Duration(ms) * time.Millisecond)
}

func TestJournalLifecycle(t *testing.T) {
	j := New(2)

	j.Install(5, 3, 100, at(0))
	j.Install(5, 1, 50, at(4))
	j.AckWaitStart(5, at(10))
	j.AckWaitEnd(5, at(30))
	j.CommittedRecv(5, at(33))
	j.SealDone(5, at(35), 4)
	j.Slowest(5, "warehouse:7", "ADD", 9*time.Millisecond, 0xabcd)
	j.Durable(5, 5*time.Millisecond)
	j.Visible(5, at(41), 1, true)

	recs := j.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("snapshot: got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Epoch != 5 || r.Server != 2 {
		t.Fatalf("identity: %+v", r)
	}
	if r.InstallTxns != 2 || r.InstallFunctors != 4 || r.InstallBytes != 150 {
		t.Errorf("install counters: %+v", r)
	}
	if got := r.LastInstallNS - r.FirstInstallNS; got != int64(4*time.Millisecond) {
		t.Errorf("install tail = %d, want 4ms", got)
	}
	if got := r.AckWaitEndNS - r.AckWaitStartNS; got != int64(20*time.Millisecond) {
		t.Errorf("ack wait = %d, want 20ms", got)
	}
	if r.FsyncNS != int64(5*time.Millisecond) {
		t.Errorf("durable marker: fsync=%d, want 5ms", r.FsyncNS)
	}
	if r.FunctorsCommitted != 4 || r.MigrationSeals != 1 || !r.StallActive {
		t.Errorf("markers: %+v", r)
	}
	if r.SlowestKey != "warehouse:7" || r.SlowestFType != "ADD" ||
		r.SlowestWaitNS != int64(9*time.Millisecond) || r.SlowestTrace != "000000000000abcd" {
		t.Errorf("slowest: %+v", r)
	}
	if !r.Complete() {
		t.Error("record should be complete")
	}
	// Ack wait (20ms) dominates install tail (4ms), broadcast (3ms),
	// seal (2ms), fsync (5ms).
	if r.LocalGatingStage != "ack-wait" {
		t.Errorf("local gating stage = %q, want ack-wait", r.LocalGatingStage)
	}
}

func TestJournalRingWrapAndStale(t *testing.T) {
	j := New(0)
	j.Install(1, 1, 1, at(0))
	j.Install(1+depth, 1, 1, at(1)) // same slot as epoch 1, newer: overwrites
	j.Install(1, 1, 1, at(2))       // stale: dropped
	if got := j.Doc().Stale; got != 1 {
		t.Fatalf("stale = %d, want 1", got)
	}
	recs := j.Snapshot()
	if len(recs) != 1 || recs[0].Epoch != 1+depth || recs[0].InstallTxns != 1 {
		t.Fatalf("after wrap: %+v", recs)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Install(1, 1, 1, at(0))
	j.AckWaitStart(1, at(0))
	j.AckWaitEnd(1, at(0))
	j.CommittedRecv(1, at(0))
	j.SealDone(1, at(0), 0)
	j.Slowest(1, "k", "VALUE", 0, 0)
	j.Durable(1, 0)
	j.Visible(1, at(0), 0, false)
	if j.Snapshot() != nil || j.Doc().Stale != 0 || j.MetricFamilies() != nil {
		t.Fatal("nil journal must be empty")
	}
	if d := j.Doc(); len(d.Records) != 0 {
		t.Fatal("nil journal doc must be empty")
	}
}

func TestJournalSkippedStagesNotObserved(t *testing.T) {
	// An epoch with no installs and no ack wait must not record
	// wall-clock-sized garbage into those stage histograms.
	j := New(0)
	j.CommittedRecv(3, at(0))
	j.SealDone(3, at(1), 0)
	j.Visible(3, at(2), 0, false)
	fams := j.MetricFamilies()
	for _, f := range fams {
		if f.Name != FamEpochStage {
			continue
		}
		for _, s := range f.Series {
			stage := s.Labels[0].Value
			if (stage == "install" || stage == "ack-wait" || stage == "broadcast") && s.Hist.Count != 0 {
				t.Errorf("stage %s observed %d times on a skipped stage", stage, s.Hist.Count)
			}
			if stage == "seal" && s.Hist.Count != 1 {
				t.Errorf("seal observed %d times, want 1", s.Hist.Count)
			}
		}
	}
}

func TestJournalAckWaitWithoutAck(t *testing.T) {
	// A revoke the switch went on without acking waited until the Committed
	// receipt; there was no broadcast stage to time.
	j := New(0)
	j.AckWaitStart(4, at(0))
	j.CommittedRecv(4, at(25))
	j.Visible(4, at(26), 0, false)
	for _, c := range []struct {
		stage int
		count uint64
		sum   time.Duration
	}{
		{StageAckWait, 1, 25 * time.Millisecond},
		{StageBroadcast, 0, 0},
	} {
		h := j.StageHist(c.stage).Snapshot()
		if h.Count != c.count || time.Duration(h.Sum) != c.sum {
			t.Errorf("stage %s: count %d sum %v, want %d and %v", StageNames[c.stage], h.Count, time.Duration(h.Sum), c.count, c.sum)
		}
	}
	if g := j.Snapshot()[0].LocalGatingStage; g != "ack-wait" {
		t.Errorf("local gating stage = %q, want ack-wait", g)
	}
}

func TestJournalTruncatesLongKeys(t *testing.T) {
	j := New(0)
	long := strings.Repeat("k", keyCap+20)
	j.Slowest(9, long, "USER", time.Millisecond, 1)
	recs := j.Snapshot()
	if len(recs) != 1 || recs[0].SlowestKey != long[:keyCap] {
		t.Fatalf("key truncation: %+v", recs)
	}
}

func TestJournalMetricFamilies(t *testing.T) {
	j := New(0)
	j.AckWaitStart(2, at(0))
	j.AckWaitEnd(2, at(20))
	j.CommittedRecv(2, at(21))
	j.Visible(2, at(22), 0, false)
	fams := j.MetricFamilies()
	if len(fams) != 2 || fams[0].Name != FamEpochStage || fams[1].Name != FamEpochGating {
		t.Fatalf("families: %+v", fams)
	}
	var gated uint64
	for _, s := range fams[1].Series {
		if s.Labels[0].Value == "ack-wait" {
			gated = uint64(s.Value)
		}
	}
	if gated != 1 {
		t.Fatalf("ack-wait gating count = %d, want 1", gated)
	}
}

func TestEMJournal(t *testing.T) {
	em := NewEM(3)
	em.Decide(4, at(0))
	em.Ack(4, 1, at(5))
	em.Ack(4, 0, at(9))
	em.Ack(4, 2, at(30))
	em.Ack(4, 99, at(31)) // out of range: ignored
	em.Commit(4, at(32))

	recs := em.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("em snapshot: %+v", recs)
	}
	r := recs[0]
	if r.Epoch != 4 || r.DecideNS == 0 || r.CommitNS == 0 {
		t.Fatalf("em record: %+v", r)
	}
	if len(r.AckOrder) != 3 || r.AckOrder[0] != 1 || r.AckOrder[1] != 0 || r.AckOrder[2] != 2 {
		t.Fatalf("ack order = %v, want [1 0 2]", r.AckOrder)
	}

	var nilEM *EM
	nilEM.Decide(1, at(0))
	nilEM.Ack(1, 0, at(0))
	nilEM.Commit(1, at(0))
	if nilEM.Snapshot() != nil {
		t.Fatal("nil EM must be empty")
	}
}

// TestEMRingWrap checks the EM mirror keeps the newest depth epochs, oldest
// first, and ignores an ack for an epoch it has overwritten.
func TestEMRingWrap(t *testing.T) {
	em := NewEM(2)
	for e := uint64(1); e <= depth+1; e++ {
		em.Decide(e, at(int(e)))
		em.Ack(e, 0, at(int(e)+1))
	}
	em.Ack(1, 1, at(0)) // epoch 1's slot now holds depth+1: stale
	recs := em.Snapshot()
	if len(recs) != depth {
		t.Fatalf("em ring holds %d records, want %d", len(recs), depth)
	}
	for i, r := range recs {
		if r.Epoch != uint64(i)+2 {
			t.Fatalf("record %d is epoch %d, want %d (oldest first)", i, r.Epoch, i+2)
		}
	}
	if last := recs[depth-1]; last.AckNS[1] != 0 || len(last.AckOrder) != 1 || last.AckOrder[0] != 0 {
		t.Fatalf("stale ack landed on epoch %d: %+v", last.Epoch, last)
	}
}

// TestDocRoundTrip pins the /debug/epochs document: a server's records
// plus the co-located EM's mirror survive the JSON round trip an operator
// tool makes, and an absent journal still yields a valid document.
func TestDocRoundTrip(t *testing.T) {
	j := New(1)
	j.Install(7, 2, 10, at(0))
	j.CommittedRecv(7, at(5))
	j.Visible(7, at(6), 0, false)
	em := NewEM(2)
	em.Decide(7, at(1))
	em.Commit(7, at(4))

	in := j.Doc()
	in.EM = em.Snapshot()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, b)
	}
	if doc.Server != 1 || doc.Ring != depth || len(doc.Records) != 1 || len(doc.EM) != 1 {
		t.Fatalf("doc: %+v", doc)
	}
	if doc.Records[0].Epoch != 7 || doc.EM[0].Epoch != 7 {
		t.Fatalf("doc epochs: %+v", doc)
	}

	var nilJ *Journal
	if b, err := json.Marshal(nilJ.Doc()); err != nil || json.Unmarshal(b, &doc) != nil {
		t.Fatalf("nil doc: %s %v", b, err)
	}
}

// BenchmarkJournalDisabledInstall guards the disabled (nil) hot path:
// 0 allocs/op, CI-enforced.
func BenchmarkJournalDisabledInstall(b *testing.B) {
	var j *Journal
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Install(uint64(i%100)+1, 2, 64, now)
	}
}

// BenchmarkJournalEnabledInstall guards the enabled hot path: ring slots
// are fixed-size, so recording must be 0 allocs/op, CI-enforced.
func BenchmarkJournalEnabledInstall(b *testing.B) {
	j := New(0)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := uint64(i%100) + 1
		j.Install(e, 2, 64, now)
		j.Slowest(e, "warehouse:7:district:3", "ADD", time.Millisecond, 42)
	}
}
