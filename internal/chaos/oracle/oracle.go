// Package oracle checks a recorded transaction/read history against the
// paper's correctness guarantees. The chaos workload writes with a
// unique-tag append functor — each transaction appends "tag;" to every key
// it touches — which turns history checking linear: a key's value at any
// snapshot is exactly the ordered list of tags of the transactions that
// committed a write to it at or below that snapshot.
//
// Checks, mapped to paper invariants:
//
//   - sequential replay (serializability, §II): every observed value's tag
//     list is strictly version-ordered, and final values contain exactly
//     the committed writers of the key in timestamp order;
//   - epoch atomicity (§III-B): a snapshot read never observes a proper
//     subset of a committed transaction's writes across the keys it read,
//     and never observes a version above its snapshot;
//   - at-most-once evaluation (§IV): no tag appears twice in any value —
//     re-invoked handlers are legal, re-applied effects are not — and a
//     handler wrapped by Witness returns the same result every time it is
//     invoked for one functor;
//   - monotonic reads: per client, snapshots are non-decreasing and each
//     key's observed tag list extends (is prefixed by) the previous one;
//   - durability of the visible (§III-B at the WAL boundary): transactions
//     discarded by crash recovery must never have been observed, and
//     observed ones must survive recovery.
//
// Transactions whose rollback could not be confirmed (AbortIncomplete, a
// partition stayed unreachable through the retry budget) are Indeterminate:
// their writes may or may not surface, so they are exempt from must-appear
// and must-not-appear checks, but still subject to ordering, duplicate, and
// snapshot-bound checks wherever they do surface.
package oracle

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// Status is a recorded transaction's outcome as the workload knows it.
type Status uint8

const (
	// StatusPending is a submitted transaction with no recorded outcome.
	StatusPending Status = iota
	// StatusCommitted transactions must appear, exactly once, in order.
	StatusCommitted
	// StatusAborted transactions (cleanly rolled back, or never installed)
	// must not appear anywhere.
	StatusAborted
	// StatusIndeterminate transactions may or may not appear (incomplete
	// rollback or unknown in-flight outcome at a crash).
	StatusIndeterminate
	// StatusDiscarded transactions committed in an epoch that crash
	// recovery rolled back; they must not appear in post-recovery state,
	// and having been observed before the crash is itself a violation
	// (visibility outran durability).
	StatusDiscarded
)

func (s Status) String() string {
	switch s {
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusIndeterminate:
		return "indeterminate"
	case StatusDiscarded:
		return "discarded"
	default:
		return "pending"
	}
}

// Txn is one recorded transaction.
type Txn struct {
	Tag     string
	Version tstamp.Timestamp
	Keys    []kv.Key
	Status  Status
}

func (t *Txn) writes(k kv.Key) bool {
	for _, key := range t.Keys {
		if key == k {
			return true
		}
	}
	return false
}

// Violation is one detected invariant breach.
type Violation struct {
	// Kind labels the broken invariant: lost-write, aborted-visible,
	// discarded-visible, duplicate-tag, order, future-read, torn-txn,
	// non-monotonic-read, unknown-tag, pending-tag, nondeterministic-compute.
	Kind   string
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

type observation struct {
	client   int
	seq      int
	snapshot tstamp.Timestamp
	values   map[kv.Key][]string // key -> parsed tag list; nil list = absent
	keys     []kv.Key            // all keys read (order preserved)
}

// History accumulates transactions, reads, and final values. All methods
// are safe for concurrent use; Check is typically called after quiesce.
type History struct {
	mu     sync.Mutex
	txns   map[string]*Txn
	bySeq  []string // tags in Begin order, for stable reporting
	obs    []observation
	seqs   map[int]int
	finals map[kv.Key][]string
	fseen  map[kv.Key]bool
	// computes holds the fingerprint of the first result of every functor
	// a Witness-wrapped handler evaluated.
	computes   map[computeID]uint64
	recomputed int
	divergent  []Violation
}

// computeID names one functor: the key it writes and its version.
type computeID struct {
	key     kv.Key
	version tstamp.Timestamp
}

// New creates an empty history.
func New() *History {
	return &History{
		txns:     make(map[string]*Txn),
		seqs:     make(map[int]int),
		finals:   make(map[kv.Key][]string),
		fseen:    make(map[kv.Key]bool),
		computes: make(map[computeID]uint64),
	}
}

// Witness wraps a workload handler so the history sees every invocation.
// A functor may be invoked more than once — by concurrent on-demand
// readers or by replay after a crash — but every invocation must produce
// the same result, so the resolution CAS installs one effect (§IV). Each
// re-invocation whose result differs from the first is reported by Check
// as a nondeterministic-compute violation.
func (h *History) Witness(fn functor.Handler) functor.Handler {
	return func(fc *functor.Context) (*functor.Resolution, error) {
		res, err := fn(fc)
		fp, id := fingerprint(res, err), computeID{fc.Key, fc.Version}
		h.mu.Lock()
		defer h.mu.Unlock()
		if first, seen := h.computes[id]; !seen {
			h.computes[id] = fp
		} else if h.recomputed++; first != fp {
			h.divergent = append(h.divergent, Violation{Kind: "nondeterministic-compute", Detail: fmt.Sprintf(
				"%s@%v: a re-invocation returned a different result than the first (fingerprint %x vs %x)",
				fc.Key, fc.Version, fp, first)})
		}
		return res, err
	}
}

// fingerprint hashes a handler's outcome: its error, or the resolution's
// kind and value. Values grow with the history, so only the hash is kept.
func fingerprint(res *functor.Resolution, err error) uint64 {
	f := fnv.New64a()
	if err != nil {
		f.Write([]byte(err.Error()))
	} else if res != nil {
		f.Write([]byte{byte(res.Kind)})
		f.Write(res.Value)
	}
	return f.Sum64()
}

// Recomputed counts the extra invocations of Witness-wrapped functors:
// legal, since at-most-once is an effect guarantee, not an invocation count.
func (h *History) Recomputed() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recomputed
}

// Begin records a transaction about to be submitted.
func (h *History) Begin(tag string, keys []kv.Key) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.txns[tag] = &Txn{Tag: tag, Keys: keys, Status: StatusPending}
	h.bySeq = append(h.bySeq, tag)
}

// Finish records a transaction's outcome. version may be zero when the
// submission failed before a timestamp was assigned.
func (h *History) Finish(tag string, version tstamp.Timestamp, st Status) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t, ok := h.txns[tag]; ok {
		t.Version = version
		t.Status = st
	}
}

// Observe records one snapshot read of several keys. values holds the raw
// stored value per found key; absent keys are simply missing from the map.
// Reads by the same client id must be recorded in their issue order.
func (h *History) Observe(client int, snapshot tstamp.Timestamp, keys []kv.Key, values map[kv.Key]kv.Value) {
	o := observation{client: client, snapshot: snapshot, values: make(map[kv.Key][]string, len(values)), keys: keys}
	for k, v := range values {
		o.values[k] = ParseTags(v)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	o.seq = h.seqs[client]
	h.seqs[client] = o.seq + 1
	h.obs = append(h.obs, o)
}

// ObserveFinal records a key's post-quiesce final value.
func (h *History) ObserveFinal(key kv.Key, value kv.Value, found bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fseen[key] = true
	if found {
		h.finals[key] = ParseTags(value)
	}
}

// DiscardEpochsAfter models a crash recovery that rolled the cluster back
// to epoch e: committed or indeterminate transactions above e become
// Discarded (their epoch never durably committed), and still-pending ones
// become Indeterminate (their in-flight outcome died with the cluster).
func (h *History) DiscardEpochsAfter(e tstamp.Epoch) {
	h.CrashRecovered(e, e)
}

// CrashRecovered models a crash whose per-partition commit markers stopped
// at different epochs: every epoch at or below durable survived on all
// partitions, epochs above recovered survived on none, and the gray band
// in between is durable on some partitions but not others (the Committed
// broadcast writes markers one partition at a time, so a crash can split
// it). Transactions in the gray band become Indeterminate — each of their
// writes may or may not have survived, and the oracle only holds them to
// the order/duplicate/snapshot rules. Still-pending transactions become
// Indeterminate regardless of epoch.
func (h *History) CrashRecovered(durable, recovered tstamp.Epoch) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.txns {
		switch t.Status {
		case StatusCommitted, StatusIndeterminate:
			switch e := t.Version.Epoch(); {
			case e > recovered:
				t.Status = StatusDiscarded
			case e > durable:
				t.Status = StatusIndeterminate
			}
		case StatusPending:
			t.Status = StatusIndeterminate
		}
	}
}

// ParseTags splits a chaos-append value ("t1;t9;t42;") into its tag list.
func ParseTags(v kv.Value) []string {
	if len(v) == 0 {
		return []string{}
	}
	parts := strings.Split(strings.TrimSuffix(string(v), ";"), ";")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Check verifies the whole history and returns every violation found.
func (h *History) Check() []Violation {
	h.mu.Lock()
	defer h.mu.Unlock()
	var vs []Violation

	// Committed writers per key, version-sorted — the sequential replay.
	writers := make(map[kv.Key][]*Txn)
	for _, tag := range h.bySeq {
		t := h.txns[tag]
		if t.Status == StatusCommitted {
			for _, k := range t.Keys {
				writers[k] = append(writers[k], t)
			}
		}
	}
	for _, ws := range writers {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Version < ws[j].Version })
	}

	// Final values: exactly the committed writers, in timestamp order.
	for k := range h.fseen {
		tags, found := h.finals[k]
		if !found {
			tags = nil
		}
		vs = append(vs, h.checkList(fmt.Sprintf("final[%s]", k), k, tags, tstamp.Max)...)
		seen := tagSet(tags)
		for _, w := range writers[k] {
			if !seen[w.Tag] {
				vs = append(vs, Violation{Kind: "lost-write", Detail: fmt.Sprintf(
					"final[%s] is missing committed txn %s@%v", k, w.Tag, w.Version)})
			}
		}
	}

	// Snapshot reads: ordered, bounded, and complete up to the snapshot.
	for _, o := range h.obs {
		where := fmt.Sprintf("read[client=%d seq=%d snap=%v]", o.client, o.seq, o.snapshot)
		for _, k := range o.keys {
			tags, found := o.values[k]
			if !found {
				tags = nil
			}
			vs = append(vs, h.checkList(fmt.Sprintf("%s key=%s", where, k), k, tags, o.snapshot)...)
			seen := tagSet(tags)
			for _, w := range writers[k] {
				if w.Version > o.snapshot {
					break
				}
				if !seen[w.Tag] {
					vs = append(vs, Violation{Kind: "lost-write", Detail: fmt.Sprintf(
						"%s key=%s is missing committed txn %s@%v (torn or lost epoch)", where, k, w.Tag, w.Version)})
				}
			}
		}
		// Epoch atomicity across keys: a committed multi-key transaction
		// below the snapshot is all-or-nothing over the keys this read
		// covers. (The per-key completeness pass above also reports each
		// missing half as lost-write; this names the atomicity breach.)
		vs = append(vs, h.checkTorn(o)...)
	}

	// Monotonic reads per client.
	vs = append(vs, h.checkMonotonic()...)
	return append(vs, h.divergent...)
}

// checkList validates one observed tag list: known tags only, no
// duplicates (at-most-once), no aborted/discarded writers, no versions
// above bound, strictly ascending versions, and every tag a writer of k.
func (h *History) checkList(where string, k kv.Key, tags []string, bound tstamp.Timestamp) []Violation {
	var vs []Violation
	seen := make(map[string]bool, len(tags))
	last := tstamp.Zero
	for _, tag := range tags {
		t, ok := h.txns[tag]
		if !ok {
			vs = append(vs, Violation{Kind: "unknown-tag", Detail: fmt.Sprintf("%s contains unrecorded tag %q", where, tag)})
			continue
		}
		if seen[tag] {
			vs = append(vs, Violation{Kind: "duplicate-tag", Detail: fmt.Sprintf(
				"%s applied txn %s twice (at-most-once violated)", where, tag)})
			continue
		}
		seen[tag] = true
		switch t.Status {
		case StatusAborted:
			vs = append(vs, Violation{Kind: "aborted-visible", Detail: fmt.Sprintf(
				"%s contains aborted txn %s@%v", where, tag, t.Version)})
		case StatusDiscarded:
			vs = append(vs, Violation{Kind: "discarded-visible", Detail: fmt.Sprintf(
				"%s contains txn %s@%v from an epoch crash recovery rolled back", where, tag, t.Version)})
		case StatusPending:
			vs = append(vs, Violation{Kind: "pending-tag", Detail: fmt.Sprintf(
				"%s contains txn %s with no recorded outcome", where, tag)})
		}
		if t.Version == tstamp.Zero {
			continue
		}
		if !t.writes(k) {
			vs = append(vs, Violation{Kind: "order", Detail: fmt.Sprintf(
				"%s contains txn %s which never wrote %s", where, tag, k)})
			continue
		}
		if t.Version > bound {
			vs = append(vs, Violation{Kind: "future-read", Detail: fmt.Sprintf(
				"%s contains txn %s@%v above the snapshot", where, tag, t.Version)})
		}
		if t.Version <= last {
			vs = append(vs, Violation{Kind: "order", Detail: fmt.Sprintf(
				"%s applied txn %s@%v out of timestamp order (after %v)", where, tag, t.Version, last)})
		}
		last = t.Version
	}
	return vs
}

// checkTorn flags committed multi-key transactions observed partially
// within one snapshot read — the epoch-atomicity breach (§III-B).
func (h *History) checkTorn(o observation) []Violation {
	var vs []Violation
	read := make(map[kv.Key]bool, len(o.keys))
	for _, k := range o.keys {
		read[k] = true
	}
	for _, tag := range h.bySeq {
		t := h.txns[tag]
		if t.Status != StatusCommitted || t.Version == tstamp.Zero || t.Version > o.snapshot || len(t.Keys) < 2 {
			continue
		}
		var covered, present int
		for _, k := range t.Keys {
			if !read[k] {
				continue
			}
			covered++
			if tagSet(o.values[k])[tag] {
				present++
			}
		}
		if covered >= 2 && present > 0 && present < covered {
			vs = append(vs, Violation{Kind: "torn-txn", Detail: fmt.Sprintf(
				"read[client=%d seq=%d snap=%v] observes %d of %d read keys of committed txn %s@%v (epoch atomicity violated)",
				o.client, o.seq, o.snapshot, present, covered, tag, t.Version)})
		}
	}
	return vs
}

// checkMonotonic verifies per-client session guarantees: non-decreasing
// snapshots and, per key, each observation extending the previous one.
func (h *History) checkMonotonic() []Violation {
	var vs []Violation
	byClient := make(map[int][]observation)
	for _, o := range h.obs {
		byClient[o.client] = append(byClient[o.client], o)
	}
	for client, obs := range byClient {
		sort.Slice(obs, func(i, j int) bool { return obs[i].seq < obs[j].seq })
		lastSnap := tstamp.Zero
		lastTags := make(map[kv.Key][]string)
		for _, o := range obs {
			if o.snapshot < lastSnap {
				vs = append(vs, Violation{Kind: "non-monotonic-read", Detail: fmt.Sprintf(
					"client %d snapshot went backwards: %v after %v", client, o.snapshot, lastSnap)})
			}
			lastSnap = o.snapshot
			for _, k := range o.keys {
				cur := o.values[k] // nil when absent
				prev, sawBefore := lastTags[k]
				if sawBefore && !isPrefix(prev, cur) {
					vs = append(vs, Violation{Kind: "non-monotonic-read", Detail: fmt.Sprintf(
						"client %d key %s: observed %v after %v (not an extension)", client, k, cur, prev)})
				}
				lastTags[k] = cur
			}
		}
	}
	return vs
}

func isPrefix(prev, cur []string) bool {
	if len(prev) > len(cur) {
		return false
	}
	for i := range prev {
		if cur[i] != prev[i] {
			return false
		}
	}
	return true
}

func tagSet(tags []string) map[string]bool {
	m := make(map[string]bool, len(tags))
	for _, t := range tags {
		m[t] = true
	}
	return m
}

// Counts summarizes the recorded transaction statuses.
func (h *History) Counts() (total, committed, aborted, indeterminate, discarded int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	total = len(h.txns)
	for _, t := range h.txns {
		switch t.Status {
		case StatusCommitted:
			committed++
		case StatusAborted:
			aborted++
		case StatusIndeterminate:
			indeterminate++
		case StatusDiscarded:
			discarded++
		}
	}
	return
}

// Reads returns the number of recorded snapshot observations.
func (h *History) Reads() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.obs)
}
