package calvin

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"alohadb/internal/kv"
	"alohadb/internal/transport"
)

// Partitioner maps a key to its owning partition.
type Partitioner func(k kv.Key, n int) int

// hashPartitioner is the default placement.
func hashPartitioner(k kv.Key, n int) int { return kv.PartitionOf(k, n) }

// schedEvent is one unit of work for the scheduler thread. Exactly one of
// the fields is set.
type schedEvent struct {
	batch   []wireTxn
	release *txnState
	reads   *MsgReads
}

// lockReq is one lock acquisition for a transaction on this partition.
type lockReq struct {
	key       kv.Key
	exclusive bool
}

// lockWaiter is an entry in a key's FIFO lock queue.
type lockWaiter struct {
	st        *txnState
	exclusive bool
	granted   bool
}

// txnState tracks one transaction on one partition.
type txnState struct {
	txn          wireTxn
	localLocks   []lockReq
	pendingLocks int
	participants []int // all partitions touching the txn
	writeOwners  []int // partitions owning write-set keys (active)
	readOwners   int   // count of partitions owning >= 1 read-set key
	active       bool  // this partition owns write-set keys

	readsMu    sync.Mutex
	reads      map[kv.Key]ReadValue
	readsFrom  map[transport.NodeID]bool
	readsReady bool
	// readyCB fires once when the last read-set slice arrives; execution
	// is event-driven rather than blocking so a finite worker pool can
	// never starve on cross-partition read waits.
	readyCB func()

	broadcastDone bool // phase A (read & broadcast) completed

	pickedAt time.Time
}

// whenReady registers fn to run once all read-set slices are present,
// invoking it immediately if they already are.
func (st *txnState) whenReady(fn func()) {
	st.readsMu.Lock()
	if st.readsReady {
		st.readsMu.Unlock()
		fn()
		return
	}
	st.readyCB = fn
	st.readsMu.Unlock()
}

// partition is one Calvin node: single-version store, single-threaded lock
// manager (the scheduler), and an execution worker pool.
type partition struct {
	id    int
	n     int
	owner Partitioner
	conn  transport.Conn
	procs *ProcRegistry

	storeMu sync.RWMutex
	store   map[kv.Key]kv.Value

	// Scheduler-owned state (touched only by the scheduler goroutine).
	locks      map[kv.Key][]*lockWaiter
	states     map[uint64]*txnState
	earlyReads map[uint64][]*MsgReads // read broadcasts that beat the batch

	// Unbounded event queue feeding the scheduler.
	evMu   sync.Mutex
	evCond *sync.Cond
	events []schedEvent
	stop   bool

	// Unbounded ready queue feeding the execution workers; dispatch must
	// never block the scheduler thread, or mutually backlogged partitions
	// could deadlock waiting for each other's read broadcasts.
	readyMu   sync.Mutex
	readyCond *sync.Cond
	readyQ    []*txnState
	execStop  bool
	wg        sync.WaitGroup

	// Origin-side completion tracking.
	doneMu  sync.Mutex
	pending map[uint64]*Handle

	statsMu sync.Mutex
	stats   Stats
}

func newPartition(id, n int, owner Partitioner, procs *ProcRegistry, workers int, net transport.Network) (*partition, error) {
	p := &partition{
		id:         id,
		n:          n,
		owner:      owner,
		procs:      procs,
		store:      make(map[kv.Key]kv.Value),
		locks:      make(map[kv.Key][]*lockWaiter),
		states:     make(map[uint64]*txnState),
		earlyReads: make(map[uint64][]*MsgReads),
		pending:    make(map[uint64]*Handle),
	}
	p.evCond = sync.NewCond(&p.evMu)
	p.readyCond = sync.NewCond(&p.readyMu)
	conn, err := net.Node(transport.NodeID(id), p.handle)
	if err != nil {
		return nil, err
	}
	p.conn = conn
	p.wg.Add(1)
	go p.scheduler()
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.execWorker()
	}
	return p, nil
}

func (p *partition) close() {
	p.evMu.Lock()
	p.stop = true
	p.evMu.Unlock()
	p.evCond.Broadcast()
	p.readyMu.Lock()
	p.execStop = true
	p.readyMu.Unlock()
	p.readyCond.Broadcast()
	p.wg.Wait()
	p.conn.Close()
}

func (p *partition) snapshotStats() Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

// handle dispatches inbound messages.
func (p *partition) handle(_ context.Context, from transport.NodeID, msg any) (any, error) {
	switch m := msg.(type) {
	case MsgBatch:
		p.post(schedEvent{batch: m.Txns})
		return nil, nil
	case MsgReads:
		p.post(schedEvent{reads: &m})
		return nil, nil
	case MsgDone:
		p.completeOne(m.TxnID)
		return nil, nil
	default:
		return nil, fmt.Errorf("calvin: partition %d: unexpected message %T", p.id, msg)
	}
}

func (p *partition) post(ev schedEvent) {
	p.evMu.Lock()
	p.events = append(p.events, ev)
	p.evMu.Unlock()
	p.evCond.Signal()
}

// scheduler is Calvin's single-threaded lock manager: it grants locks in
// the deterministic global order, dispatches fully-locked transactions to
// the worker pool, and hands granted locks to successors on release. Under
// hot-key contention, every conflicting transaction funnels through this
// one thread — the bottleneck the paper identifies (§V-C1).
func (p *partition) scheduler() {
	defer p.wg.Done()
	for {
		p.evMu.Lock()
		for len(p.events) == 0 && !p.stop {
			p.evCond.Wait()
		}
		if p.stop {
			p.evMu.Unlock()
			return
		}
		ev := p.events[0]
		p.events = p.events[1:]
		p.evMu.Unlock()

		switch {
		case ev.batch != nil:
			for _, txn := range ev.batch {
				p.admit(txn)
			}
		case ev.release != nil:
			p.releaseLocks(ev.release)
		case ev.reads != nil:
			p.deliverReads(ev.reads)
		}
	}
}

// admit processes one transaction of the global order on this partition.
func (p *partition) admit(txn wireTxn) {
	st := p.buildState(txn)
	if st == nil {
		return // not a participant
	}
	p.states[txn.ID] = st
	now := time.Now()
	st.pickedAt = now
	p.statsMu.Lock()
	p.stats.SequencingTime += now.Sub(txn.IssuedAt)
	p.stats.SequencingN++
	p.statsMu.Unlock()
	// Deliver any read broadcasts that raced ahead of the batch.
	if early := p.earlyReads[txn.ID]; early != nil {
		delete(p.earlyReads, txn.ID)
		for _, m := range early {
			st.addReads(m.From, m.Reads)
		}
	}
	// Request every local lock in order; blocked requests queue FIFO.
	for _, req := range st.localLocks {
		w := &lockWaiter{st: st, exclusive: req.exclusive}
		q := append(p.locks[req.key], w)
		p.locks[req.key] = q
		if p.eligible(q, len(q)-1) {
			w.granted = true
			p.statsMu.Lock()
			p.stats.LocksGranted++
			p.statsMu.Unlock()
		} else {
			st.pendingLocks++
			p.statsMu.Lock()
			p.stats.LockWaits++
			p.statsMu.Unlock()
		}
	}
	if st.pendingLocks == 0 {
		p.dispatch(st)
	}
}

// eligible reports whether the waiter at index i of queue q may hold its
// lock: an exclusive waiter only at the head, a shared waiter if no
// exclusive waiter precedes it.
func (p *partition) eligible(q []*lockWaiter, i int) bool {
	if q[i].exclusive {
		return i == 0
	}
	for j := 0; j < i; j++ {
		if q[j].exclusive {
			return false
		}
	}
	return true
}

// buildState derives the partition-local view of a transaction; nil if
// this partition does not participate.
func (p *partition) buildState(txn wireTxn) *txnState {
	parts := make(map[int]bool)
	readOwners := make(map[int]bool)
	writeOwners := make(map[int]bool)
	for _, k := range txn.ReadSet {
		o := p.owner(k, p.n)
		parts[o] = true
		readOwners[o] = true
	}
	for _, k := range txn.WriteSet {
		o := p.owner(k, p.n)
		parts[o] = true
		writeOwners[o] = true
	}
	if !parts[p.id] {
		return nil
	}
	st := &txnState{
		txn:        txn,
		active:     writeOwners[p.id],
		readOwners: len(readOwners),
		reads:      make(map[kv.Key]ReadValue, len(txn.ReadSet)),
		readsFrom:  make(map[transport.NodeID]bool, len(readOwners)),
	}
	for o := range parts {
		st.participants = append(st.participants, o)
	}
	sort.Ints(st.participants)
	for o := range writeOwners {
		st.writeOwners = append(st.writeOwners, o)
	}
	sort.Ints(st.writeOwners)
	// Local locks: write keys exclusive, read-only keys shared; dedup.
	seen := make(map[kv.Key]bool)
	for _, k := range txn.WriteSet {
		if p.owner(k, p.n) != p.id || seen[k] {
			continue
		}
		seen[k] = true
		st.localLocks = append(st.localLocks, lockReq{key: k, exclusive: true})
	}
	for _, k := range txn.ReadSet {
		if p.owner(k, p.n) != p.id || seen[k] {
			continue // already exclusive via the write set
		}
		seen[k] = true
		st.localLocks = append(st.localLocks, lockReq{key: k, exclusive: false})
	}
	if st.readOwners == 0 {
		st.readsReady = true // nothing to read anywhere
	}
	return st
}

// dispatch hands a fully-locked transaction to the worker pool without
// ever blocking the scheduler thread.
func (p *partition) dispatch(st *txnState) {
	p.readyMu.Lock()
	p.readyQ = append(p.readyQ, st)
	p.readyMu.Unlock()
	p.readyCond.Signal()
}

// releaseLocks returns a finished transaction's locks and grants newly
// eligible successors, dispatching any that become fully locked.
func (p *partition) releaseLocks(st *txnState) {
	delete(p.states, st.txn.ID)
	for _, req := range st.localLocks {
		q := p.locks[req.key]
		idx := -1
		for i, w := range q {
			if w.st == st {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		q = append(q[:idx], q[idx+1:]...)
		if len(q) == 0 {
			delete(p.locks, req.key)
			continue
		}
		p.locks[req.key] = q
		// Grant every now-eligible waiter that was not granted before.
		for i, w := range q {
			if !p.eligible(q, i) {
				break
			}
			if w.granted {
				continue
			}
			w.granted = true
			w.st.pendingLocks--
			p.statsMu.Lock()
			p.stats.LocksGranted++
			p.statsMu.Unlock()
			if w.st.pendingLocks == 0 {
				p.dispatch(w.st)
			}
		}
	}
}

// deliverReads merges a read broadcast into the transaction's state,
// buffering broadcasts that arrive before the batch does.
func (p *partition) deliverReads(m *MsgReads) {
	st, ok := p.states[m.TxnID]
	if !ok {
		p.earlyReads[m.TxnID] = append(p.earlyReads[m.TxnID], m)
		return
	}
	st.addReads(m.From, m.Reads)
}

func (st *txnState) addReads(from transport.NodeID, reads []ReadValue) {
	st.readsMu.Lock()
	if st.readsFrom[from] {
		st.readsMu.Unlock()
		return
	}
	st.readsFrom[from] = true
	for _, r := range reads {
		st.reads[r.Key] = r
	}
	var cb func()
	if len(st.readsFrom) == st.readOwners && !st.readsReady {
		st.readsReady = true
		cb = st.readyCB
		st.readyCB = nil
	}
	st.readsMu.Unlock()
	if cb != nil {
		cb()
	}
}

// execWorker runs dispatched transactions: read the local slice, broadcast
// it, redundantly execute the stored procedure once all slices arrive, and
// apply the local writes.
func (p *partition) execWorker() {
	defer p.wg.Done()
	for {
		p.readyMu.Lock()
		for len(p.readyQ) == 0 && !p.execStop {
			p.readyCond.Wait()
		}
		if p.execStop {
			p.readyMu.Unlock()
			return
		}
		st := p.readyQ[0]
		p.readyQ = p.readyQ[1:]
		p.readyMu.Unlock()
		p.execute(st)
	}
}

// execute runs one dispatched transaction in two non-blocking phases.
// Phase A (first dispatch, locks held): read the local read-set slice and
// broadcast it to the active participants. A passive participant is then
// done; an active one re-enters the ready queue as phase B once all
// read-set slices have arrived — workers never block on remote reads, so
// a finite pool cannot starve across mutually waiting partitions.
func (p *partition) execute(st *txnState) {
	if !st.broadcastDone {
		st.broadcastDone = true
		p.readAndBroadcast(st)
		if !st.active {
			p.finish(st)
			return
		}
		st.whenReady(func() { p.dispatch(st) })
		return
	}
	// Phase B: all reads present; run the procedure and apply local writes.
	st.readsMu.Lock()
	reads := make(map[kv.Key]kv.Value, len(st.reads))
	for k, r := range st.reads {
		if r.Found {
			reads[k] = r.Value
		}
	}
	st.readsMu.Unlock()
	lockRead := time.Since(st.pickedAt)

	procStart := time.Now()
	var writes map[kv.Key]kv.Value
	if proc, ok := p.procs.lookup(st.txn.Proc); ok {
		writes = proc(reads, st.txn.Args, st.txn.WriteSet)
	}
	procDur := time.Since(procStart)

	p.storeMu.Lock()
	for k, v := range writes {
		if p.owner(k, p.n) == p.id {
			p.store[k] = v
		}
	}
	p.storeMu.Unlock()

	p.statsMu.Lock()
	p.stats.LockReadTime += lockRead
	p.stats.LockReadN++
	p.stats.ProcessingTime += procDur
	p.stats.ProcessingN++
	p.stats.TxnsExecuted++
	p.statsMu.Unlock()
	p.finish(st)
}

// readAndBroadcast reads the local read-set slice under the held locks and
// ships it to the active participants, which are the only ones that
// execute and need the values.
func (p *partition) readAndBroadcast(st *txnState) {
	var local []ReadValue
	ownsReads := false
	for _, k := range st.txn.ReadSet {
		if p.owner(k, p.n) != p.id {
			continue
		}
		ownsReads = true
		p.storeMu.RLock()
		v, found := p.store[k]
		p.storeMu.RUnlock()
		local = append(local, ReadValue{Key: k, Value: v, Found: found})
	}
	if !ownsReads {
		return
	}
	st.addReads(transport.NodeID(p.id), local)
	for _, o := range st.writeOwners {
		if o == p.id {
			continue
		}
		_ = p.conn.Send(context.Background(), transport.NodeID(o), MsgReads{
			TxnID: st.txn.ID,
			From:  transport.NodeID(p.id),
			Reads: local,
		})
	}
}

// finish releases the transaction's locks and reports completion to the
// origin node.
func (p *partition) finish(st *txnState) {
	p.post(schedEvent{release: st})
	if st.txn.Origin == transport.NodeID(p.id) {
		p.completeOne(st.txn.ID)
	} else {
		_ = p.conn.Send(context.Background(), st.txn.Origin, MsgDone{TxnID: st.txn.ID})
	}
}

// completeOne counts one participant's completion toward the handle.
func (p *partition) completeOne(txnID uint64) {
	p.doneMu.Lock()
	h := p.pending[txnID]
	finished := false
	if h != nil {
		h.remaining--
		if h.remaining == 0 {
			delete(p.pending, txnID)
			finished = true
		}
	}
	p.doneMu.Unlock()
	if finished {
		h.finishedAt = time.Now()
		close(h.done)
	}
}

func (p *partition) load(k kv.Key, v kv.Value) {
	p.storeMu.Lock()
	p.store[k] = v
	p.storeMu.Unlock()
}
