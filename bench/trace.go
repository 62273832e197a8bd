package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span names. The benchmark records spans from its own files only, around
// its calls into the engine; spans inside the engine are a later change.
const (
	spanTxn          = "bench.txn"   // root, one per transaction (lat phase)
	spanBatch        = "bench.batch" // root, one per SubmitBatch of satBatch transactions (sat phase)
	spanSubmit       = "core.coordinator.submit"
	spanAwait        = "core.handle.await"
	spanRead         = "bench.read" // root, one per read
	spanGetCommitted = "core.read.getcommitted"
	spanReadMany     = "core.read.readmany"
)

// span is one timed interval: name, start, end and the span that caused
// it. Spans of one transaction share the root's id as their parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's origin
	End    int64  `json:"end_ns"`
	Txns   int    `json:"txns,omitempty"` // transactions a batch root covers
}

// spanBuf is one goroutine's in-memory span buffer; ids carry the owner in
// their high bits so buffers never coordinate.
type spanBuf struct {
	origin time.Time
	owner  uint64
	seq    uint64
	spans  []span
}

func newSpanBuf(origin time.Time, owner int) *spanBuf {
	return &spanBuf{origin: origin, owner: uint64(owner+1) << 48}
}

func (b *spanBuf) add(parent uint64, name string, start, end time.Time, txns int) uint64 {
	b.seq++
	id := b.owner | b.seq
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(b.origin).Nanoseconds(), End: end.Sub(b.origin).Nanoseconds(), Txns: txns,
	})
	return id
}

// addRead records one read: the bench.read root from due to end and the
// engine call beneath it.
func (b *spanBuf) addRead(call string, due, start, end time.Time) {
	b.add(b.add(0, spanRead, due, end, 0), call, start, end, 0)
}

// writeSpans writes every buffered span as one JSON object per line,
// followed by one line holding the counter snapshot of the run.
func writeSpans(path string, bufs []*spanBuf, counters map[string]metric) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range bufs {
		for i := range b.spans {
			if err := enc.Encode(&b.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := enc.Encode(map[string]any{"counters": counters}); err != nil {
		f.Close()
		return n, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
