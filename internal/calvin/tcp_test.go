package calvin

import (
	"context"
	"testing"
	"time"

	"alohadb/internal/kv"
	"alohadb/internal/transport"
)

// TestCalvinOverTCP runs the baseline across real sockets, exercising the
// wire codec of every Calvin message type (batches, read broadcasts,
// completion notices).
func TestCalvinOverTCP(t *testing.T) {
	RegisterMessages()
	const partitions = 2
	addrs := make(map[transport.NodeID]string)
	for i := 0; i <= partitions; i++ { // partitions + sequencer
		addrs[transport.NodeID(i)] = "127.0.0.1:0"
	}
	net := transport.NewTCPNetwork(addrs)
	defer net.Close()
	c, err := NewCluster(Config{
		Partitions:   partitions,
		ManualEpochs: true,
		Procs:        testProcs(t),
		Network:      net,
		Partitioner: func(k kv.Key, n int) int {
			if k == "a" {
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
		{Key: "a", Value: kv.EncodeInt64(100)},
		{Key: "b", Value: kv.EncodeInt64(0)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var handles []*Handle
	for i := 0; i < 5; i++ {
		h, err := c.Submit(i%partitions, Txn{
			ReadSet:  []kv.Key{"a", "b"},
			WriteSet: []kv.Key{"a", "b"},
			Proc:     "transfer",
			Args:     kv.EncodeInt64(10),
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	c.AdvanceEpoch()
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("transaction never completed over TCP")
		}
		h.Wait() // idempotent second wait
		if h.Latency() <= 0 {
			t.Error("latency not recorded")
		}
	}
	va, _ := c.Get("a")
	vb, _ := c.Get("b")
	na, _ := kv.DecodeInt64(va)
	nb, _ := kv.DecodeInt64(vb)
	if na != 50 || nb != 50 {
		t.Errorf("a=%d b=%d, want 50/50", na, nb)
	}
}

// TestRemoteSubmitViaSequencerMessage drives the sequencer through its
// message interface (the path remote front-ends would use).
func TestRemoteSubmitViaSequencerMessage(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.Load([]kv.Pair{{Key: "k", Value: kv.EncodeInt64(0)}}); err != nil {
		t.Fatal(err)
	}
	// Hand-register the handle as Submit would, then deliver the
	// transaction via MsgSubmit instead of the embedded fast path.
	id := c.seq.nextID(0)
	h := &Handle{done: make(chan struct{}), issuedAt: time.Now(), remaining: 1}
	p := c.partitions[0]
	p.doneMu.Lock()
	p.pending[id] = h
	p.doneMu.Unlock()
	if _, err := c.seq.handle(context.Background(), 0, MsgSubmit{Txn: wireTxn{
		ID:       id,
		Origin:   0,
		ReadSet:  []kv.Key{"k"},
		WriteSet: []kv.Key{"k"},
		Proc:     "incr",
		IssuedAt: time.Now(),
	}}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceEpoch()
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("message-submitted transaction never completed")
	}
	v, _ := c.Get("k")
	if n, _ := kv.DecodeInt64(v); n != 1 {
		t.Errorf("k = %d, want 1", n)
	}
	// Unknown messages are rejected.
	if _, err := c.seq.handle(context.Background(), 0, MsgDone{}); err == nil {
		t.Error("sequencer accepted an unexpected message type")
	}
}
