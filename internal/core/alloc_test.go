package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

// TestUntracedHotPathAllocs extends the tracer's "disabled path allocates
// zero" guard (internal/trace) to the two engine functions that run per
// functor: with no tracer configured, span attributes must cost nothing —
// not a formatted count in handleInstall, not a formatted wait in
// processor.process — and an arithmetic functor costs its value alone.
func TestUntracedHotPathAllocs(t *testing.T) {
	c := newTestCluster(t, 1, -1) // no workers: the test drives process itself
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "k", Functor: functor.Add(1)}}})
	mustAdvance(t, c)

	chain := s.store.Chain("k")
	item := &workItem{key: "k", chain: chain, rec: chain.At(h.Version()), installed: time.Now()}
	s.proc.process(item) // computes the functor and raises the watermark
	if !item.rec.Final() || chain.Watermark() < h.Version() {
		t.Fatal("process left the functor uncomputed")
	}
	if n := testing.AllocsPerRun(1000, func() { s.proc.process(item) }); n != 0 {
		t.Errorf("untraced processor.process allocates %v objects per functor, want 0", n)
	}

	// An arithmetic functor resolves straight into its record: what it
	// allocates is the eight bytes of its value. Each run computes the next
	// version of the key.
	const runs = 200
	adds := make([]Txn, runs+2)
	for i := range adds {
		adds[i] = Txn{Writes: []Write{{Key: "a", Functor: functor.Add(1)}}}
	}
	_, handles, err := s.SubmitBatch(context.Background(), adds)
	if err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	chain = s.store.Chain("a")
	next := 1
	if n := testing.AllocsPerRun(runs, func() {
		add := &workItem{key: "a", chain: chain, rec: chain.At(handles[next].Version()), installed: time.Now()}
		next++
		s.proc.process(add)
		if kind, _, _ := add.rec.Outcome(); kind != functor.Resolved {
			t.Fatalf("process left the ADD functor at %v", kind)
		}
	}); n != 1 {
		t.Errorf("untraced processor.process of an ADD functor allocates %v objects, want 1 (its value)", n)
	}

	// A user functor with a local two-key read set: the call frame (the
	// Context and its Reads map) is recycled, so what is left is what the
	// handler returns — here a shared resolution, so nothing. Each run
	// computes the next version of the key.
	shared := functor.ValueResolution(kv.Value("v"))
	s.registry.MustRegister("shared", func(*functor.Context) (*functor.Resolution, error) { return shared, nil })
	txns := []Txn{{Writes: []Write{{Key: "r1", Functor: functor.Value(kv.Value("1"))}, {Key: "r2", Functor: functor.Value(kv.Value("2"))}}}}
	for len(txns) < runs+2 {
		txns = append(txns, Txn{Writes: []Write{{Key: "u", Functor: functor.User("shared", nil, []kv.Key{"r1", "r2"})}}})
	}
	_, handles, err = s.SubmitBatch(context.Background(), txns)
	if err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, c)
	chain = s.store.Chain("u")
	next = 1
	if n := testing.AllocsPerRun(runs, func() {
		user := &workItem{key: "u", chain: chain, rec: chain.At(handles[next].Version()), installed: time.Now()}
		next++
		s.proc.process(user)
		if !user.rec.Final() {
			t.Fatal("process left the user functor uncomputed")
		}
	}); n != 0 {
		t.Errorf("untraced processor.process of a user functor allocates %v objects beyond what its handler returns, want 0", n)
	}

	// A retransmitted install takes the whole handler path and stores
	// nothing, so all that is left is the response's result slice.
	msg := MsgInstall{Txns: []InstallTxn{{Version: h.Version(), Writes: []Write{{Key: "k", Functor: functor.Add(1)}}}}}
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() { s.handleInstall(ctx, msg, nil, false) }); n > 1 {
		t.Errorf("untraced handleInstall allocates %v objects beyond its response, want none", n-1)
	}
}

// liveHeapObjects is the number of objects that survive a collection.
func liveHeapObjects() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapObjects
}

// TestStoreObjectBudget pins what a key written once keeps alive — nothing
// of its own: key, version and value are bytes in a row log, and all that
// lives is the key's share of the slabs and the index — on the two paths
// that build most of a TPC-C store, the bulk load and deferred writes, and
// on the one that builds most of a YCSB store: an ADD installed, computed
// and folded back into a row; and, with retention on, a key written twice
// once retirement has passed its older version: the history it folded into
// is compacted to one version where it lies, and is a row again. Every object
// here would be one the collector marks again on every cycle for as long as
// the version lives (a chain cost three; a computed key that kept its chain
// for good cost two and a half). Its history case pins a key that keeps a
// chain: a handful of objects, however long its history.
func TestStoreObjectBudget(t *testing.T) {
	const (
		n      = 100_000
		budget = 0.1
	)
	pair := func(i int) (kv.Key, kv.Value) {
		return kv.Key(fmt.Sprintf("row:%07d", i)), kv.EncodeInt64(int64(i))
	}
	measure := func(name string, workers int, build func(c *Cluster)) {
		c := newTestCluster(t, 1, workers)
		if workers > 0 {
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
		}
		before := liveHeapObjects()
		build(c)
		per := float64(liveHeapObjects()-before) / n
		if got := c.Server(0).store.Len(); got != n {
			t.Fatalf("%s: store holds %d keys, want %d", name, got, n)
		}
		t.Logf("%s: %.2f live heap objects per key", name, per)
		if per > budget {
			t.Errorf("%s leaves %.2f live heap objects per key, budget %.1f", name, per, budget)
		}
		if st := c.Server(0).store.Stats(); st.Rows != n || st.Chains != 0 {
			t.Errorf("%s: %d rows and %d chains, want every key a row", name, st.Rows, st.Chains)
		}
	}
	measure("Cluster.Load", -1, func(c *Cluster) {
		pairs := make([]kv.Pair, n)
		for i := range pairs {
			pairs[i].Key, pairs[i].Value = pair(i)
		}
		if err := c.Load(pairs); err != nil {
			t.Fatal(err)
		}
	})
	measure("deferred writes", -1, func(c *Cluster) {
		// Ten rows per determinate functor, as a NewOrder writes them.
		s, ctx := c.Server(0), context.Background()
		for i := 0; i < n; i += 10 {
			writes := make([]functor.DependentWrite, 10)
			for j := range writes {
				writes[j].Key, writes[j].Value = pair(i + j)
			}
			s.handleApplyDeferred(ctx, MsgApplyDeferred{Version: tstamp.Make(1, uint32(i+1), 0), Writes: writes, Fwd: true})
		}
	})
	// submitAdds installs an ADD on every key, ten keys per transaction, as
	// ycsb-hot writes its cold keys, a hundred transactions a batch; with
	// perBatch set each batch is an epoch of its own.
	submitAdds := func(c *Cluster, perBatch bool) {
		s, ctx, add := c.Server(0), context.Background(), functor.Add(1)
		for i := 0; i < n; i += 1000 {
			txns := make([]Txn, 100)
			for j := range txns {
				txns[j].Writes = make([]Write, 10)
				for w := range txns[j].Writes {
					txns[j].Writes[w].Key, _ = pair(i + 10*j + w)
					txns[j].Writes[w].Functor = add
				}
			}
			if _, _, err := s.SubmitBatch(ctx, txns); err != nil {
				t.Fatal(err)
			}
			if perBatch {
				mustAdvance(t, c)
			}
		}
		mustAdvance(t, c)
	}
	measure("computed ADD installs", 1, func(c *Cluster) {
		submitAdds(c, true)
		c.DrainProcessors()
	})
	measure("retained keys written twice", 1, func(c *Cluster) {
		// Every key written in two epochs under retention 1, computed, and
		// retired past the older version.
		c.SetRetention(1)
		submitAdds(c, false)
		submitAdds(c, false)
		c.DrainProcessors()
		mustAdvance(t, c)
		mustAdvance(t, c)
	})
	t.Run("short history", storeShortHistoryObjectBudget)
	t.Run("history", storeHistoryObjectBudget)
}

// storeShortHistoryObjectBudget is TestStoreObjectBudget's short history
// case, the shape of a TPC-C stock table: loaded rows, each written one to
// six times, an ADD an epoch, and computed. Every version is then final and
// at or below the watermark, so each key folds into a history: one buffer of
// bytes, which the collector never scans. The rows are loaded before the
// count starts, so their share of the row log is paid, as in the history
// case.
func storeShortHistoryObjectBudget(t *testing.T) {
	const (
		n      = 20_000
		writes = 6
		perKey = 1.5
	)
	pair := func(i int) (kv.Key, kv.Value) {
		return kv.Key(fmt.Sprintf("stock:%07d", i)), kv.EncodeInt64(int64(i))
	}
	c := newTestCluster(t, 1, 1)
	pairs := make([]kv.Pair, n)
	for i := range pairs {
		pairs[i].Key, pairs[i].Value = pair(i)
	}
	if err := c.Load(pairs); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	s, ctx, add := c.Server(0), context.Background(), functor.Add(1)
	before := liveHeapObjects()
	// Key i is written i%6 + 1 times, in the first rounds; ten keys a
	// transaction, as a NewOrder writes its stock rows.
	for round := 0; round < writes; round++ {
		var txns []Txn
		var ws []Write
		for i := 0; i < n; i++ {
			if i%writes < round {
				continue
			}
			k, _ := pair(i)
			if ws = append(ws, Write{Key: k, Functor: add}); len(ws) == 10 {
				txns, ws = append(txns, Txn{Writes: ws}), nil
			}
		}
		if len(ws) > 0 {
			txns = append(txns, Txn{Writes: ws})
		}
		if _, _, err := s.SubmitBatch(ctx, txns); err != nil {
			t.Fatal(err)
		}
		mustAdvance(t, c)
		c.DrainProcessors()
	}
	per := (float64(liveHeapObjects()) - float64(before)) / n
	st := s.store.Stats()
	t.Logf("short history: %.2f live heap objects per key; %+v", per, st)
	if st.Histories != n || st.Chains != 0 {
		t.Errorf("short history: %d histories and %d chains, want every key a history", st.Histories, st.Chains)
	}
	for i := 0; i < n; i += 997 {
		k, _ := pair(i)
		if got, want := len(s.store.View(k)), i%writes+2; got != want {
			t.Fatalf("%q holds %d versions, want %d", k, got, want)
		}
	}
	if per > perKey {
		t.Errorf("short history leaves %.2f live heap objects per key, budget %.1f", per, perKey)
	}
}

// storeHistoryObjectBudget is TestStoreObjectBudget's history case: what a
// key with history keeps alive. Below its watermark every version is frozen
// into its chain's run, bytes the collector never scans, so a key holds a
// handful of objects however long its history — its chain, a block with its
// records inline, its run, and its newest record with what that points at.
// Two kinds of key: one computed ADD per epoch, and a determinate key whose
// every version carries ten dependent writes, the shape of a TPC-C district
// (its newest record keeps the handler's Resolution, the writes and the
// value). The dependent keys live on a server the writes never reach, so
// that what lives is the history alone, and the keys are loaded as rows
// first, so that their share of the row log is paid before the count starts
// (their chain-table numbers too).
//
// The processor computes every epoch as it commits, and freezes eight
// versions at a time: after the loaded version and a thousand more, the
// newest is a record and the thousand below it are frozen.
func storeHistoryObjectBudget(t *testing.T) {
	const (
		versions = 1000
		keys     = 32 // of each kind: the process's own objects come and go meanwhile
		perKey   = 8
	)
	var depKeys [10]kv.Key
	for j := range depKeys {
		depKeys[j] = kv.Key(fmt.Sprintf("dep:%d", j))
	}
	depValue := kv.Value("line")
	reg := functor.NewRegistry()
	reg.MustRegister("det10", func(ctx *functor.Context) (*functor.Resolution, error) {
		n := int64(0)
		if r := ctx.Reads[ctx.Key]; r.Found {
			n, _ = kv.DecodeInt64(r.Value)
		}
		writes := make([]functor.DependentWrite, len(depKeys))
		for j, k := range depKeys {
			writes[j] = functor.DependentWrite{Key: k, Value: depValue}
		}
		return &functor.Resolution{Kind: functor.Resolved, Value: kv.EncodeInt64(n + 1), DependentWrites: writes}, nil
	})
	net := &dropApplies{Network: transport.NewMemNetwork()}
	net.drop.Store(true)
	c, err := NewCluster(ClusterConfig{
		Servers: 2, ManualEpochs: true, Registry: reg, Workers: 1, Network: net,
		Router: placement.NewStatic(2, func(k kv.Key, n int) int {
			if strings.HasPrefix(string(k), "dep:") {
				return 1
			}
			return 0
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); net.Close() })
	s, ctx := c.Server(0), context.Background()
	add, det := functor.Add(1), functor.User("det10", nil, nil)
	txns := func(kind string, fn *functor.Functor) []Txn {
		out := make([]Txn, keys)
		for i := range out {
			out[i].Writes = []Write{{Key: kv.Key(fmt.Sprintf("%s:%d", kind, i)), Functor: fn}}
		}
		return out
	}
	warm, adds, dets := append(txns("warm:add", add), txns("warm:det", det)...), txns("add", add), txns("det", det)
	var pairs []kv.Pair
	for _, txn := range append(append(append([]Txn(nil), warm...), adds...), dets...) {
		pairs = append(pairs, kv.Pair{Key: txn.Writes[0].Key, Value: kv.EncodeInt64(0)})
	}
	if err := c.Load(pairs); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	write := func(txns []Txn, n int) {
		for i := 0; i < n; i++ {
			if _, _, err := s.SubmitBatch(ctx, txns); err != nil {
				t.Fatal(err)
			}
			mustAdvance(t, c)
			c.DrainProcessors()
		}
	}
	// Other keys' history first sets up what every epoch reuses: the
	// processor's chunks, the epoch journal's slots. And every shard's chain
	// table gets numbers to spare, as the row log got the keys' entries: a
	// key's share of those is the row cases' subject, not this one's.
	write(warm, 64)
	for i := 0; i < 4096; i++ {
		filler := kv.Key(fmt.Sprintf("filler:%d", i))
		if _, _, err := s.store.Stage(filler, tstamp.Make(1, 1, 0), add); err != nil {
			t.Fatal(err)
		}
		s.store.Drop(filler)
	}
	for _, kind := range []struct {
		name string
		txns []Txn
	}{{"computed ADD", adds}, {"determinate", dets}} {
		before := liveHeapObjects()
		write(kind.txns, versions)
		per := (float64(liveHeapObjects()) - float64(before)) / keys
		for _, txn := range kind.txns {
			k := txn.Writes[0].Key
			if h := s.store.Chain(k).History(); h.Len() != versions+1 || h.Frozen() != versions {
				t.Fatalf("%q holds %d versions, %d of them frozen; want %d, all but the newest", k, h.Len(), h.Frozen(), versions+1)
			}
		}
		t.Logf("%s: a history of %d versions leaves %.2f live heap objects per key", kind.name, versions, per)
		if per > perKey {
			t.Errorf("%s: a history of %d versions leaves %.2f live heap objects per key, budget %d whatever its length", kind.name, versions, per, perKey)
		}
	}
}

// TestLandedHistoryBytesBudget pins what a determinate key's history costs
// in bytes once its deferred writes have landed: the dependent keys' rows
// hold the writes, so a frozen version is its entry and its value alone.
// The key is a TPC-C district's next order id, written a thousand times,
// each version with a NewOrder's dozen writes — the order, its new-order row
// and ten order lines, keyed by the id it allocates. Where the writes did
// not land (their owner's applies are dropped) each version keeps them,
// about ten times the bytes: the budget would see them come back.
func TestLandedHistoryBytesBudget(t *testing.T) {
	const (
		versions = 1000
		perEpoch = 100
		budget   = 32 // bytes a landed version may cost
	)
	reg := functor.NewRegistry()
	reg.MustRegister("neworder", func(ctx *functor.Context) (*functor.Resolution, error) {
		oid := int64(0)
		if r := ctx.Reads[ctx.Key]; r.Found {
			oid, _ = kv.DecodeInt64(r.Value)
		}
		oid++
		writes := []functor.DependentWrite{
			{Key: kv.Key(fmt.Sprintf("o:1:3:%d", oid)), Value: binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(oid)*7919), 1234), 10)},
			{Key: kv.Key(fmt.Sprintf("no:1:3:%d", oid)), Value: kv.EncodeInt64(1)},
		}
		for line := 1; line <= 10; line++ {
			v := binary.AppendUvarint(nil, uint64(oid*31+int64(line))%100_000)
			v = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(v, 1), uint64(line%10+1)), uint64(line)*4999)
			writes = append(writes, functor.DependentWrite{Key: kv.Key(fmt.Sprintf("ol:1:3:%d:%d", oid, line)), Value: v})
		}
		return &functor.Resolution{Kind: functor.Resolved, Value: kv.EncodeInt64(oid), DependentWrites: writes}, nil
	})
	// perVersion writes the history with the order rows on server rowsOn,
	// whose applies are dropped when drop is set, and returns the frozen
	// bytes per frozen version on server 0.
	perVersion := func(rowsOn int, drop bool) float64 {
		net := &dropApplies{Network: transport.NewMemNetwork()}
		net.drop.Store(drop)
		c, err := NewCluster(ClusterConfig{
			Servers: 2, ManualEpochs: true, Registry: reg, Workers: 1, Network: net,
			Router: placement.NewStatic(2, func(k kv.Key, n int) int {
				if strings.HasPrefix(string(k), "doid:") {
					return 0
				}
				return rowsOn
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { c.Close(); net.Close() }()
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		s, ctx := c.Server(0), context.Background()
		txns := make([]Txn, perEpoch)
		for i := range txns {
			txns[i].Writes = []Write{{Key: "doid:1:3", Functor: functor.User("neworder", nil, nil)}}
		}
		for i := 0; i < versions; i += perEpoch {
			if _, _, err := s.SubmitBatch(ctx, txns); err != nil {
				t.Fatal(err)
			}
			mustAdvance(t, c)
		}
		c.DrainProcessors()
		st := s.store.Stats()
		if st.FrozenVersions < versions-1 {
			t.Fatalf("doid:1:3 has %d of its %d versions frozen, want all but the newest at least", st.FrozenVersions, versions)
		}
		if got := c.Server(rowsOn).store.Len(); drop != (got < 12*versions) {
			t.Fatalf("server %d holds %d keys after %d NewOrders (their writes dropped: %v)", rowsOn, got, versions, drop)
		}
		return float64(st.FrozenBytes) / float64(st.FrozenVersions)
	}
	landed, kept := perVersion(0, false), perVersion(1, true)
	t.Logf("a frozen NewOrder version costs %.1f bytes with its writes landed, %.1f with its writes kept", landed, kept)
	if landed > budget {
		t.Errorf("a landed determinate version costs %.1f frozen bytes, budget %d", landed, budget)
	}
	if kept < 4*budget {
		t.Errorf("a version whose writes did not land costs %.1f frozen bytes: it no longer keeps its writes", kept)
	}
}

// TestLoadAllocatesNoFunctorPerPair: a bulk load without a durability hook
// allocates a row's share of slab and index growth from empty, and neither a
// chain nor a functor only to read type and argument back (a hook gets one
// to log; that path is TestRecoverMatchesReference's).
func TestLoadAllocatesNoFunctorPerPair(t *testing.T) {
	const n = 10_000
	c := newTestCluster(t, 1, -1)
	pairs := make([]kv.Pair, n)
	for i := range pairs {
		pairs[i] = kv.Pair{Key: kv.Key(fmt.Sprintf("row:%05d", i)), Value: kv.EncodeInt64(int64(i))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := c.Load(pairs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.2 {
		t.Errorf("Cluster.Load allocates %.2f objects per pair, want <= 0.2", per)
	}
}

// TestSubmitBatchLeavesCallerSlicesAlone: a transaction with one owner hands
// its own Writes and Requires slices to the install, so nothing on the
// install path may write through an InstallTxn's slices — not into their
// elements and not, by append, into the capacity behind them.
func TestSubmitBatchLeavesCallerSlicesAlone(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	keyOn := func(server int, prefix string) kv.Key {
		for i := 0; ; i++ {
			if k := kv.Key(fmt.Sprintf("%s%d", prefix, i)); c.Server(0).owner(k) == server {
				return k
			}
		}
	}
	a, b, item := keyOn(0, "a"), keyOn(0, "b"), keyOn(0, "item")
	remote, remoteItem := keyOn(1, "r"), keyOn(1, "ritem")
	if err := c.Load([]kv.Pair{{Key: item, Value: kv.Value("i")}, {Key: remoteItem, Value: kv.Value("i")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	sentinelW := Write{Key: "sentinel", Functor: functor.Add(7)}
	// padded returns its arguments with spare capacity holding sentinels.
	writes := func(ws ...Write) []Write {
		out := append(make([]Write, 0, len(ws)+3), ws...)
		copy(out[len(ws):cap(out)], []Write{sentinelW, sentinelW, sentinelW})
		return out
	}
	requires := func(ks ...kv.Key) []kv.Key {
		out := append(make([]kv.Key, 0, len(ks)+3), ks...)
		copy(out[len(ks):cap(out)], []kv.Key{"sentinel", "sentinel", "sentinel"})
		return out
	}
	txns := []Txn{
		{Writes: writes(Write{Key: a, Functor: functor.Add(1)}, Write{Key: b, Functor: functor.Add(2)}), Requires: requires(item)},           // one owner, local
		{Writes: writes(Write{Key: remote, Functor: functor.Add(3)}), Requires: requires(remoteItem)},                                        // one owner, remote
		{Writes: writes(Write{Key: a, Functor: functor.Add(4)}, Write{Key: remote, Functor: functor.Add(5)}), Requires: requires(item)},      // two owners
		{Writes: writes(Write{Key: b, Functor: functor.Add(6)}), Requires: requires(item, "missing")},                                        // aborts in phase 1
		{Writes: writes(Write{Key: remote, Functor: functor.Add(7)}, Write{Key: b, Functor: functor.Add(8)}), Requires: requires("missing")}, // two owners, aborts
	}
	type snapshot struct {
		writes   []Write
		requires []kv.Key
	}
	full := func(txn Txn) snapshot {
		return snapshot{
			writes:   append([]Write(nil), txn.Writes[:cap(txn.Writes)]...),
			requires: append([]kv.Key(nil), txn.Requires[:cap(txn.Requires)]...),
		}
	}
	var before []snapshot
	for _, txn := range txns {
		before = append(before, full(txn))
	}
	results, handles, err := c.Server(0).SubmitBatch(context.Background(), txns)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, false, false, true, true} {
		if results[i].Aborted != want {
			t.Fatalf("txn %d aborted = %v (%s), want %v", i, results[i].Aborted, results[i].Reason, want)
		}
	}
	mustAdvance(t, c)
	for i, h := range handles {
		if _, _, err := h.Await(context.Background()); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	for i, txn := range txns {
		if got := full(txn); !reflect.DeepEqual(got, before[i]) {
			t.Errorf("txn %d: the engine wrote through the caller's slices:\n got %+v\nwant %+v", i, got, before[i])
		}
	}
	// The installs landed where they should have: a = 1 + 4, b = 2, remote = 3 + 5.
	for k, want := range map[kv.Key]int64{a: 5, b: 2, remote: 8} {
		v, found, err := c.Server(0).GetCommitted(context.Background(), k)
		if got, _ := kv.DecodeInt64(v); err != nil || !found || got != want {
			t.Errorf("%s = %d found=%v err=%v, want %d", k, got, found, err, want)
		}
	}
}

// TestStoreTierMetrics: the families that say how much of the store is rows
// and histories follow a load, an install on a loaded key (which thaws it;
// computed, its two versions fold into a history), an install on a fresh key
// (a chain until it is computed, then folded back into a row), a read and an
// Await on the folded key (which move nothing); /debug/obs carries the
// counters and the histories.
func TestStoreTierMetrics(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	if err := c.Load([]kv.Pair{{Key: "a", Value: kv.EncodeInt64(1)}, {Key: "b", Value: kv.EncodeInt64(2)}, {Key: "c", Value: kv.EncodeInt64(3)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, c, 0, Txn{Writes: []Write{{Key: "d", Functor: functor.Add(4)}, {Key: "a", Functor: functor.Add(1)}}})
	mustAdvance(t, c)
	mustAdvance(t, c)
	c.DrainProcessors()
	if committed, _, err := h.Await(context.Background()); err != nil || !committed { // waits on "d"
		t.Fatalf("Await on a folded key: committed=%v err=%v", committed, err)
	}
	if v, found, err := c.Server(0).GetCommitted(context.Background(), "b"); err != nil || !found || len(v) != 8 {
		t.Fatalf("read of a loaded row: %x found=%v err=%v", v, found, err)
	}
	got := map[string]float64{}
	for _, f := range c.Server(0).MetricFamilies() {
		for _, s := range f.Series {
			name := f.Name
			for _, l := range s.Labels {
				if l.Key == "tier" {
					name += "/" + l.Value
				}
			}
			got[name] = s.Value
		}
	}
	for name, want := range map[string]float64{FamStoreKeys + "/row": 3, FamStoreKeys + "/chain": 0, FamStoreHistories: 1, FamStoreThaws: 1, FamStoreFolds: 2} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if sum := summarize(c.Server(0).MetricFamilies()); sum.StoreThaws != 1 || sum.StoreFolds != 2 || sum.StoreHistories != 1 {
		t.Errorf("/debug/obs has %v thaws, %v folds and %v histories, want 1, 2 and 1", sum.StoreThaws, sum.StoreFolds, sum.StoreHistories)
	}
	if got[FamStoreRowBytes] < 3*(13+1+8) {
		t.Errorf("%s = %v, want the three loaded rows' bytes", FamStoreRowBytes, got[FamStoreRowBytes])
	}
}
