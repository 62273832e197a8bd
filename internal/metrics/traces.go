package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"alohadb/internal/trace"
)

// TraceHandler serves the tracer's snapshots over HTTP. Mounted at
// /debug/traces by OpsHandler:
//
//	GET .../debug/traces            recent + slow traces as JSON
//	  ?n=N      keep only the N most recent traces (per section)
//	  ?slow=1   slow-captured traces only
//	GET .../debug/traces/chrome     Chrome trace-event JSON: save and load
//	                                in chrome://tracing or ui.perfetto.dev
//
// Nil-safe: with a nil tracer every route answers 404 with a hint.
func TraceHandler(t *trace.Tracer) http.Handler {
	if t == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "tracing disabled: set a sample rate or slow threshold", http.StatusNotFound)
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { serveJSON(t, w, r) })
	mux.HandleFunc("/chrome", func(w http.ResponseWriter, r *http.Request) { serveChrome(t, w, r) })
	return mux
}

// jsonSpan is the wire form of SpanData: IDs as fixed-width hex so they
// survive JSON number precision, durations both raw and human-readable.
type jsonSpan struct {
	Span    string       `json:"span"`
	Parent  string       `json:"parent,omitempty"`
	Name    string       `json:"name"`
	Node    int          `json:"node"`
	StartNs int64        `json:"start_ns"`
	DurNs   int64        `json:"dur_ns"`
	Dur     string       `json:"dur"`
	Attrs   []trace.Attr `json:"attrs,omitempty"`
	Slow    bool         `json:"slow,omitempty"`
}

type jsonTrace struct {
	Trace string     `json:"trace"`
	Dur   string     `json:"dur"`
	Slow  bool       `json:"slow,omitempty"`
	Spans []jsonSpan `json:"spans"`
}

type jsonSnapshot struct {
	Recent  []jsonTrace `json:"recent"`
	Slow    []jsonTrace `json:"slow"`
	Dropped uint64      `json:"dropped_spans"`
}

func toJSONTraces(traces []trace.Trace, limit int) []jsonTrace {
	if limit > 0 && len(traces) > limit {
		traces = traces[len(traces)-limit:] // keep most recent
	}
	out := make([]jsonTrace, 0, len(traces))
	for _, tr := range traces {
		jt := jsonTrace{
			Trace: fmt.Sprintf("%016x", uint64(tr.ID)),
			Dur:   tr.Duration().String(),
			Slow:  tr.Slow(),
			Spans: make([]jsonSpan, 0, len(tr.Spans)),
		}
		for _, sd := range tr.Spans {
			js := jsonSpan{
				Span:    fmt.Sprintf("%016x", uint64(sd.Span)),
				Name:    sd.Name,
				Node:    sd.Node,
				StartNs: sd.Start,
				DurNs:   sd.Dur,
				Dur:     durString(sd.Dur),
				Attrs:   sd.Attrs,
				Slow:    sd.Slow,
			}
			if sd.Parent != 0 {
				js.Parent = fmt.Sprintf("%016x", uint64(sd.Parent))
			}
			jt.Spans = append(jt.Spans, js)
		}
		out = append(out, jt)
	}
	return out
}

func serveJSON(t *trace.Tracer, w http.ResponseWriter, r *http.Request) {
	limit := 100
	if s := r.URL.Query().Get("n"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			limit = n
		}
	}
	snap := jsonSnapshot{
		Slow:    toJSONTraces(t.SlowTraces(), limit),
		Dropped: t.Dropped(),
	}
	if r.URL.Query().Get("slow") == "" {
		snap.Recent = toJSONTraces(t.Traces(), limit)
	}
	if snap.Recent == nil {
		snap.Recent = []jsonTrace{}
	}
	if snap.Slow == nil {
		snap.Slow = []jsonTrace{}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		// Headers are gone; nothing to do but note it for the operator.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// chromeEvent is one Chrome trace-event ("X" = complete event, "M" =
// metadata). Timestamps and durations are microseconds per the format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func serveChrome(t *trace.Tracer, w http.ResponseWriter, r *http.Request) {
	traces := t.Traces()
	seen := make(map[trace.SpanID]bool)
	for _, tr := range traces {
		for _, sd := range tr.Spans {
			seen[sd.Span] = true
		}
	}
	for _, tr := range t.SlowTraces() {
		for _, sd := range tr.Spans {
			if !seen[sd.Span] {
				traces = append(traces, trace.Trace{ID: tr.ID, Spans: []trace.SpanData{sd}})
				seen[sd.Span] = true
			}
		}
	}

	events := make([]chromeEvent, 0, 64)
	nodes := make(map[int]bool)
	for _, tr := range traces {
		for _, sd := range tr.Spans {
			args := map[string]any{
				"trace": fmt.Sprintf("%016x", uint64(tr.ID)),
				"span":  fmt.Sprintf("%016x", uint64(sd.Span)),
			}
			if sd.Parent != 0 {
				args["parent"] = fmt.Sprintf("%016x", uint64(sd.Parent))
			}
			for _, a := range sd.Attrs {
				args[a.Key] = a.Value
			}
			if sd.Slow {
				args["slow"] = true
			}
			events = append(events, chromeEvent{
				Name: sd.Name,
				Cat:  "aloha",
				Ph:   "X",
				Ts:   float64(sd.Start) / 1e3,
				Dur:  float64(sd.Dur) / 1e3,
				Pid:  sd.Node,
				// One track per trace within each node row groups a
				// transaction's spans together in the viewer.
				Tid:  uint64(tr.ID),
				Args: args,
			})
			nodes[sd.Node] = true
		}
	}
	for node := range nodes {
		events = append(events, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  node,
			Args: map[string]any{"name": fmt.Sprintf("aloha-server %d", node)},
		})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="aloha-trace.json"`)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func durString(ns int64) string { return time.Duration(ns).String() }
