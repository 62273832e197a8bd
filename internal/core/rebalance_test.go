package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/placement"
	"alohadb/internal/tstamp"
)

// keyOwnedBy finds a key with the given prefix that hash-partitions to the
// wanted server.
func keyOwnedBy(t *testing.T, want, servers int, prefix string) kv.Key {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		k := kv.Key(prefix + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676)))
		if kv.PartitionOf(k, servers) == want {
			return k
		}
	}
	t.Fatalf("no key with prefix %q owned by server %d", prefix, want)
	return ""
}

func TestLiveMigrationMovesKey(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	k := keyOwnedBy(t, 0, 2, "mig-")
	if err := c.Load([]kv.Pair{{Key: k, Value: kv.Value("v0")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, c, 1, Txn{Writes: []Write{{Key: k, Functor: functor.Value(kv.Value("v1"))}}})
	if aborted, reason := h.Installed(); aborted {
		t.Fatalf("pre-move install aborted: %s", reason)
	}
	mustAdvance(t, c)

	ticket, err := c.Rebalancer().MoveKey(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c) // barrier executes the move
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	handoff, err := ticket.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if handoff == 0 {
		t.Fatal("handoff epoch not set")
	}

	// Routing converged everywhere: every server and the cluster table now
	// name server 1 the owner, and the old epoch still routes to server 0.
	for i := 0; i < c.NumServers(); i++ {
		if got := c.Server(i).Owner(k); got != 1 {
			t.Errorf("server %d routes %q to %d, want 1", i, k, got)
		}
		if gen := c.Server(i).PlacementTable().Generation(); gen != 1 {
			t.Errorf("server %d at generation %d, want 1", i, gen)
		}
	}
	if got := int(c.PlacementTable().Route(k, handoff)); got != 0 {
		t.Errorf("epoch-%d route = %d, want old owner 0", handoff, got)
	}

	// The chain migrated: the new owner holds the pre-move versions.
	if recs, _, ok := c.Server(1).Store().ExportKey(k); !ok || len(recs) != 2 {
		t.Fatalf("server 1 has %d records of %q (ok=%v), want 2", len(recs), k, ok)
	}

	// Post-move writes land at the new owner and reads chase the move.
	h = mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: k, Functor: functor.Value(kv.Value("v2"))}}})
	if aborted, reason := h.Installed(); aborted {
		t.Fatalf("post-move install aborted: %s", reason)
	}
	mustAdvance(t, c)
	if recs, _, ok := c.Server(1).Store().ExportKey(k); !ok || len(recs) != 3 {
		t.Fatalf("server 1 has %d records of %q (ok=%v), want 3 after post-move write", len(recs), k, ok)
	}
	v, found, err := c.Server(0).GetCommitted(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "v2" {
		t.Fatalf("read after move = %q found=%v, want v2", v, found)
	}

	// The old replica retires once the handoff settles and records final.
	c.DrainProcessors()
	for i := 0; i < retireGrace+retireAttempts; i++ {
		mustAdvance(t, c)
		c.DrainProcessors()
	}
	if _, _, ok := c.Server(0).Store().ExportKey(k); ok {
		t.Error("old owner still holds the migrated chain after retirement")
	}
}

func TestStaleGenerationInstallRejectedAndRetried(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	k := keyOwnedBy(t, 1, 2, "stale-")
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Server 1 learns a newer map (the key moved to server 0) that the
	// coordinator on server 0 has not seen: its next install routes to
	// server 1 under the stale generation.
	newMap := (*placement.Map)(nil).Next(placement.Move{Range: placement.KeyRange(k), To: 0, From: 1})
	if !c.Server(1).PlacementTable().Install(newMap) {
		t.Fatal("map install rejected")
	}

	h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: k, Functor: functor.Value(kv.Value("v"))}}})
	if aborted, reason := h.Installed(); aborted {
		t.Fatalf("stale-generation install aborted instead of retried: %s", reason)
	}
	// The retry adopted the rejecting server's map and landed the write at
	// the owner the new map names, with the same timestamp.
	if gen := c.Server(0).PlacementTable().Generation(); gen != 1 {
		t.Errorf("coordinator at generation %d after retry, want 1", gen)
	}
	recs, _, ok := c.Server(0).Store().ExportKey(k)
	if !ok || len(recs) != 1 {
		t.Fatalf("new owner has %d records (ok=%v), want 1", len(recs), ok)
	}
	if recs[0].Version != h.Version() {
		t.Errorf("retried install changed the timestamp: %v != %v", recs[0].Version, h.Version())
	}
	if recs2, _, ok2 := c.Server(1).Store().ExportKey(k); ok2 && len(recs2) > 0 {
		t.Errorf("rejecting server installed %d records anyway", len(recs2))
	}
	mustAdvance(t, c)
	v, found, err := c.Server(1).GetCommitted(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "v" {
		t.Fatalf("read after retried install = %q found=%v, want v", v, found)
	}
}

func TestSealedRangeRejectsInstall(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	k := keyOwnedBy(t, 0, 2, "seal-")
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s0 := c.Server(0)
	s0.handleRangeSeal(MsgRangeSeal{Ranges: []placement.Range{placement.KeyRange(k)}})
	ts, err := s0.gen.Next()
	if err != nil {
		t.Fatal(err)
	}
	resp := s0.handleInstall(context.Background(), MsgInstall{Txns: []InstallTxn{{
		Version: ts,
		Writes:  []Write{{Key: k, Functor: functor.Value(kv.Value("x"))}},
	}}}, nil, false)
	if len(resp.Results) != 1 || !resp.Results[0].WrongOwner {
		t.Fatalf("sealed-range install = %+v, want WrongOwner", resp.Results)
	}
	s0.handleRangeSeal(MsgRangeSeal{Clear: true})
	resp = s0.handleInstall(context.Background(), MsgInstall{Txns: []InstallTxn{{
		Version: ts,
		Writes:  []Write{{Key: k, Functor: functor.Value(kv.Value("x"))}},
	}}}, nil, false)
	if len(resp.Results) != 1 || !resp.Results[0].OK {
		t.Fatalf("post-clear install = %+v, want OK", resp.Results)
	}
}

func TestForwardedAbortStashesUntilImport(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	k := keyOwnedBy(t, 0, 2, "stash-")
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s1 := c.Server(1)
	ts := tstamp.Make(1, 7, 0)
	// A forwarded abort arrives before the migrated record: it must stash.
	if err := s1.handleAbort(context.Background(), AbortReq{Version: ts, Keys: []kv.Key{k}, Fwd: true}); err != nil {
		t.Fatal(err)
	}
	// The import delivers the record; the stashed abort applies to it.
	s1.handleRangeImport(context.Background(), MsgRangeImport{
		Keys: []mvstore.KeyExport{{Key: k, Records: []mvstore.ExportedRecord{{
			Version: ts, Functor: functor.Value(kv.Value("doomed")),
		}}}},
		Handoff: 1,
	})
	rec, ok := s1.Store().At(k, ts)
	if !ok {
		t.Fatal("imported record missing")
	}
	res := rec.Resolution()
	if res == nil || res.Kind != functor.ResolvedAborted {
		t.Fatalf("stashed abort not applied: resolution=%v", res)
	}
}

// TestLiveMigrationMovesRows moves a range of loaded rows: the old owner
// exports them from where they lie, the new owner reads them, and retirement
// drops them at the old owner without one of them ever becoming a chain
// there.
func TestLiveMigrationMovesRows(t *testing.T) {
	const n = 200
	c := newTestCluster(t, 2, 0)
	var pairs []kv.Pair
	for i := 0; len(pairs) < n; i++ {
		if k := kv.Key(fmt.Sprintf("row-%04d", i)); kv.PartitionOf(k, 2) == 0 {
			pairs = append(pairs, kv.Pair{Key: k, Value: kv.EncodeInt64(int64(i))})
		}
	}
	stay := kv.Pair{Key: keyOwnedBy(t, 0, 2, "stay-"), Value: kv.Value("put")}
	if err := c.Load(append(pairs, stay)); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	old := c.Server(0).Store()
	if st := old.Stats(); st.Rows != n+1 || st.Chains != 0 {
		t.Fatalf("loaded %+v, want %d rows", st, n+1)
	}
	ticket, err := c.Rebalancer().MoveRange(placement.Range{Start: "row-", End: "row."}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := ticket.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if got := c.Server(0).Owner(p.Key); got != 1 {
			t.Fatalf("%q routes to %d after the move, want 1", p.Key, got)
		}
		for fe := 0; fe < 2; fe++ {
			v, found, err := c.Server(fe).GetCommitted(ctx, p.Key)
			if err != nil || !found || !bytes.Equal(v, p.Value) {
				t.Fatalf("server %d reads %q = %x found=%v err=%v, want %x", fe, p.Key, v, found, err, p.Value)
			}
		}
	}
	for i := 0; i < retireGrace+retireAttempts; i++ {
		mustAdvance(t, c)
		c.DrainProcessors()
	}
	if st := old.Stats(); st.Rows != 1 || st.Chains != 0 || st.Thaws != 0 {
		t.Errorf("old owner after retirement: %+v, want the one row that stayed and no thaw", st)
	}
	if _, _, ok := old.ExportKey(pairs[0].Key); ok {
		t.Errorf("old owner still holds %q", pairs[0].Key)
	}
	if got := c.Server(1).Store().Len(); got < n {
		t.Errorf("new owner holds %d keys, want at least the %d moved", got, n)
	}
}
