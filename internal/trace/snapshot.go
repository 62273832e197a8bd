package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Trace is a snapshot of one trace: all retained spans sharing a TraceID,
// sorted by start time.
type Trace struct {
	ID    TraceID
	Spans []SpanData
}

// Root returns the trace's root span (Parent == 0), or nil if the ring
// evicted it before the snapshot.
func (tr *Trace) Root() *SpanData {
	for i := range tr.Spans {
		if tr.Spans[i].Parent == 0 {
			return &tr.Spans[i]
		}
	}
	return nil
}

// Duration is the root span's duration when present, else the envelope of
// all retained spans.
func (tr *Trace) Duration() time.Duration {
	if r := tr.Root(); r != nil {
		return time.Duration(r.Dur)
	}
	var min, max int64
	for i, sd := range tr.Spans {
		if i == 0 || sd.Start < min {
			min = sd.Start
		}
		if e := sd.End(); e > max {
			max = e
		}
	}
	return time.Duration(max - min)
}

// Slow reports whether any retained span was captured by the
// slow-transaction policy.
func (tr *Trace) Slow() bool {
	for _, sd := range tr.Spans {
		if sd.Slow {
			return true
		}
	}
	return false
}

// Traces returns the traces currently retained by the recent (sampled)
// ring, oldest first. Nil-safe.
func (t *Tracer) Traces() []Trace {
	if t == nil {
		return nil
	}
	spans, _ := t.recent.Snapshot()
	return group(spans)
}

// SlowTraces returns the traces captured by the slow-transaction policy,
// oldest first. Roots always come from the slow ring; for sampled slow
// traces the children still retained in the recent ring are joined in, so
// a slow sampled transaction shows its full lifecycle.
func (t *Tracer) SlowTraces() []Trace {
	if t == nil {
		return nil
	}
	roots, _ := t.slow.Snapshot()
	if len(roots) == 0 {
		return nil
	}
	want := make(map[TraceID]bool, len(roots))
	for _, sd := range roots {
		want[sd.Trace] = true
	}
	spans := roots
	recent, _ := t.recent.Snapshot()
	for _, sd := range recent {
		// The sampled slow root is in both rings; keep the slow-ring copy
		// (it carries Slow=true).
		if want[sd.Trace] && sd.Parent != 0 {
			spans = append(spans, sd)
		}
	}
	return group(spans)
}

// Dropped reports how many sampled spans the recent ring has overwritten —
// nonzero means snapshots are missing the oldest history.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	_, dropped := t.recent.Snapshot()
	return dropped
}

// group buckets spans by TraceID, sorts each trace's spans by start time,
// and orders traces by their earliest span.
func group(spans []SpanData) []Trace {
	if len(spans) == 0 {
		return nil
	}
	byID := make(map[TraceID]*Trace)
	order := make([]TraceID, 0, 16)
	for _, sd := range spans {
		tr := byID[sd.Trace]
		if tr == nil {
			tr = &Trace{ID: sd.Trace}
			byID[sd.Trace] = tr
			order = append(order, sd.Trace)
		}
		tr.Spans = append(tr.Spans, sd)
	}
	out := make([]Trace, 0, len(order))
	for _, id := range order {
		tr := byID[id]
		sort.SliceStable(tr.Spans, func(i, j int) bool { return tr.Spans[i].Start < tr.Spans[j].Start })
		out = append(out, *tr)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Spans[0].Start < out[j].Spans[0].Start })
	return out
}

// Slowest returns the n longest traces, longest first. It does not modify
// its input.
func Slowest(traces []Trace, n int) []Trace {
	out := make([]Trace, len(traces))
	copy(out, traces)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Duration() > out[j].Duration() })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteText renders traces as an indented tree, one block per trace —
// aloha-bench's -trace-slowest dump format.
func WriteText(w io.Writer, traces []Trace) error {
	for _, tr := range traces {
		slow := ""
		if tr.Slow() {
			slow = " [slow]"
		}
		name := "?"
		if r := tr.Root(); r != nil {
			name = r.Name
		}
		if _, err := fmt.Fprintf(w, "trace %016x root=%s dur=%v spans=%d%s\n",
			uint64(tr.ID), name, tr.Duration(), len(tr.Spans), slow); err != nil {
			return err
		}
		children := make(map[SpanID][]SpanData)
		known := make(map[SpanID]bool, len(tr.Spans))
		for _, sd := range tr.Spans {
			known[sd.Span] = true
		}
		var orphans []SpanData
		for _, sd := range tr.Spans {
			if sd.Parent != 0 && !known[sd.Parent] {
				orphans = append(orphans, sd) // parent evicted from the ring
				continue
			}
			children[sd.Parent] = append(children[sd.Parent], sd)
		}
		var walk func(parent SpanID, depth int) error
		walk = func(parent SpanID, depth int) error {
			for _, sd := range children[parent] {
				if err := writeTextSpan(w, sd, depth); err != nil {
					return err
				}
				if err := walk(sd.Span, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(0, 1); err != nil {
			return err
		}
		for _, sd := range orphans {
			if err := writeTextSpan(w, sd, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeTextSpan(w io.Writer, sd SpanData, depth int) error {
	for i := 0; i < depth; i++ {
		if _, err := io.WriteString(w, "  "); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "[node %d] %s %v%s\n",
		sd.Node, sd.Name, time.Duration(sd.Dur), attrsText(sd.Attrs))
	return err
}

func attrsText(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	s := ""
	for _, a := range attrs {
		s += " " + a.Key + "=" + a.Value
	}
	return s
}
