package core

import (
	"context"
	"testing"
	"time"

	"alohadb/internal/functor"
)

// TestUntracedHotPathAllocs extends the tracer's "disabled path allocates
// zero" guard (internal/trace) to the two engine functions that run per
// functor: with no tracer configured, span attributes must cost nothing —
// not a formatted count in handleInstall, not a formatted wait in
// processor.process.
func TestUntracedHotPathAllocs(t *testing.T) {
	c := newTestCluster(t, 1, -1) // no workers: the test drives process itself
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "k", Functor: functor.Add(1)}}})
	mustAdvance(t, c)

	chain := s.store.Chain("k")
	item := workItem{key: "k", chain: chain, rec: chain.At(h.Version()), installed: time.Now()}
	s.proc.process(item) // computes the functor and raises the watermark
	if !item.rec.Final() || chain.Watermark() < h.Version() {
		t.Fatal("process left the functor uncomputed")
	}
	if n := testing.AllocsPerRun(1000, func() { s.proc.process(item) }); n != 0 {
		t.Errorf("untraced processor.process allocates %v objects per functor, want 0", n)
	}

	// A retransmitted install takes the whole handler path and stores
	// nothing, so all that is left is the response's result slice.
	msg := MsgInstall{Txns: []InstallTxn{{Version: h.Version(), Writes: []Write{{Key: "k", Functor: functor.Add(1)}}}}}
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() { s.handleInstall(ctx, msg, nil, false) }); n > 1 {
		t.Errorf("untraced handleInstall allocates %v objects beyond its response, want none", n-1)
	}
}
