package metrics

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"alohadb/internal/trace"
)

func TestTraceHandlerJSONAndChrome(t *testing.T) {
	tr := trace.New(trace.Config{SampleRate: 1, SlowThreshold: time.Microsecond})
	nt := tr.ForNode(0)
	ctx, root := nt.StartRoot(context.Background(), "txn.submit")
	_, child := nt.Start(ctx, "be.install")
	child.End()
	time.Sleep(time.Millisecond)
	root.End()

	h := TraceHandler(tr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("GET / = %d", rec.Code)
	}
	var snap struct {
		Recent  []json.RawMessage `json:"recent"`
		Slow    []json.RawMessage `json:"slow"`
		Dropped uint64            `json:"dropped_spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(snap.Recent) != 1 || len(snap.Slow) != 1 {
		t.Errorf("recent=%d slow=%d, want 1/1", len(snap.Recent), len(snap.Slow))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/?slow=1&n=5", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /?slow=1 = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Recent) != 0 {
		t.Errorf("slow-only view returned %d recent traces", len(snap.Recent))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/chrome", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /chrome = %d", rec.Code)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range chrome.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if complete < 2 || meta < 1 {
		t.Errorf("chrome events: %d complete, %d metadata", complete, meta)
	}
}

func TestTraceHandlerNilTracer(t *testing.T) {
	h := TraceHandler(nil)
	for _, path := range []string{"/", "/chrome"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 404 {
			t.Errorf("GET %s with nil tracer = %d, want 404", path, rec.Code)
		}
	}
}
