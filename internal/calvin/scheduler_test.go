package calvin

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"alohadb/internal/kv"
	"alohadb/internal/transport"
)

// TestEarlyReadsBufferedBeforeBatch covers the race where a participant's
// read broadcast reaches a peer before the sequencer's batch does: the
// reads must be buffered and delivered at admission, not dropped.
func TestEarlyReadsBufferedBeforeBatch(t *testing.T) {
	procs := testProcs(t)
	net := transport.NewMemNetwork()
	defer net.Close()
	p, err := newPartition(0, 2, func(k kv.Key, n int) int {
		if k == "remote" {
			return 1
		}
		return 0
	}, procs, 2, net)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	// Attach a stub for partition 1 and the sequencer slot so sends work.
	if _, err := net.Node(1, func(context.Context, transport.NodeID, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}

	txn := wireTxn{
		ID:       42,
		Origin:   1,
		ReadSet:  []kv.Key{"remote", "local"},
		WriteSet: []kv.Key{"local"},
		Proc:     "incr",
		IssuedAt: time.Now(),
	}
	// Reads arrive before the batch.
	p.post(schedEvent{reads: &MsgReads{
		TxnID: 42,
		From:  1,
		Reads: []ReadValue{{Key: "remote", Value: kv.EncodeInt64(7), Found: true}},
	}})
	// Then the batch.
	p.post(schedEvent{batch: []wireTxn{txn}})

	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := p.get("local"); ok {
			if n, _ := kv.DecodeInt64(v); n != 1 {
				t.Fatalf("local = %d, want 1", n)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("transaction never executed (early reads lost)")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLockQueueAgainstReference drives random single-partition
// transactions through the scheduler and cross-checks the final counter
// values against a sequential reference (deterministic order = submission
// order within one batch).
func TestLockQueueAgainstReference(t *testing.T) {
	c := newTestCluster(t, 1)
	rng := rand.New(rand.NewSource(99))
	keys := []kv.Key{"a", "b", "c", "d"}
	model := make(map[kv.Key]int64)
	var handles []*Handle
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(3)
		seen := map[kv.Key]bool{}
		var ks []kv.Key
		for len(ks) < n {
			k := keys[rng.Intn(len(keys))]
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
		hs, err := c.SubmitMany(0, []Txn{{ReadSet: ks, WriteSet: ks, Proc: "incr"}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hs...)
		for _, k := range ks {
			model[k]++
		}
		if i%37 == 0 {
			c.AdvanceEpoch()
		}
	}
	c.AdvanceEpoch()
	waitAll(t, handles)
	for k, want := range model {
		v, ok := c.Get(k)
		n, _ := kv.DecodeInt64(v)
		if !ok || n != want {
			t.Errorf("%s = %d ok=%v, want %d", k, n, ok, want)
		}
	}
	stats := c.Stats()
	if stats.TxnsExecuted != 200 {
		t.Errorf("TxnsExecuted = %d, want 200", stats.TxnsExecuted)
	}
	if stats.LocksGranted == 0 || stats.SequencingN == 0 {
		t.Errorf("stats not recorded: %+v", stats)
	}
}

// TestPassiveParticipantReleasesEarly: a read-only participant (owns read
// keys, no write keys) must broadcast and finish without waiting for the
// active side's execution.
func TestPassiveParticipantReleasesEarly(t *testing.T) {
	procs := testProcs(t)
	c, err := NewCluster(Config{
		Partitions: 2,
		Procs:      procs,
		Partitioner: func(k kv.Key, n int) int {
			if k == "ro" {
				return 0
			}
			return 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load([]kv.Pair{
		{Key: "ro", Value: kv.EncodeInt64(5)},
		{Key: "rw", Value: kv.EncodeInt64(0)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.startManual(); err != nil {
		t.Fatal(err)
	}
	// Reads "ro" (partition 0, passive), writes "rw" (partition 1,
	// active). Then a second transaction takes "ro" exclusively: if the
	// passive participant failed to release its shared lock, this hangs.
	hs, err := c.SubmitMany(0, []Txn{
		{ReadSet: []kv.Key{"ro", "rw"}, WriteSet: []kv.Key{"rw"}, Proc: "incr"},
		{ReadSet: []kv.Key{"ro"}, WriteSet: []kv.Key{"ro"}, Proc: "incr"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AdvanceEpoch()
	waitAll(t, hs)
	v, _ := c.Get("ro")
	if n, _ := kv.DecodeInt64(v); n != 6 {
		t.Errorf("ro = %d, want 6", n)
	}
	v, _ = c.Get("rw")
	if n, _ := kv.DecodeInt64(v); n != 1 {
		t.Errorf("rw = %d, want 1", n)
	}
}

// TestSequencerBatchOrderStable: batches delivered across epochs preserve
// submission order per origin, so the deterministic order is
// reproducible.
func TestSequencerBatchOrderStable(t *testing.T) {
	c := newTestCluster(t, 1)
	var handles []*Handle
	for i := 0; i < 50; i++ {
		hs, err := c.SubmitMany(0, []Txn{{
			ReadSet:  []kv.Key{"log"},
			WriteSet: []kv.Key{"log"},
			Proc:     "appendArg",
			Args:     []byte{byte('a' + i%26)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hs...)
		if i%11 == 0 {
			c.AdvanceEpoch()
		}
	}
	c.AdvanceEpoch()
	waitAll(t, handles)
	v, ok := c.Get("log")
	if !ok || len(v) != 50 {
		t.Fatalf("log has %d bytes, want 50", len(v))
	}
	for i, b := range v {
		if b != byte('a'+i%26) {
			t.Fatalf("log[%d] = %c, want %c (order not preserved)", i, b, 'a'+i%26)
		}
	}
}
