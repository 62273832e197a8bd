package metrics

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func opsGather() []Family {
	var c Counter
	c.Add(7)
	return []Family{{
		Name:   "aloha_test_total",
		Help:   "test counter",
		Kind:   KindCounter,
		Series: []Series{CounterSeries(c.Value())},
	}}
}

func TestOpsHandlerRoutes(t *testing.T) {
	traced := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Echo the path the mount hands us so the test can assert the
		// prefix stripping.
		_, _ = w.Write([]byte("traces:" + r.URL.Path))
	})
	h := OpsHandler(opsGather, nil, traced)

	get := func(t *testing.T, path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	t.Run("metrics", func(t *testing.T) {
		rec := get(t, "/metrics")
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("Content-Type = %q", ct)
		}
		if !strings.Contains(rec.Body.String(), "aloha_test_total 7") {
			t.Errorf("exposition missing counter:\n%s", rec.Body.String())
		}
	})

	t.Run("healthz", func(t *testing.T) {
		rec := get(t, "/healthz")
		if rec.Code != 200 || rec.Body.String() != "ok\n" {
			t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
		}
	})

	t.Run("pprof", func(t *testing.T) {
		rec := get(t, "/debug/pprof/")
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "goroutine") {
			t.Error("pprof index missing profile listing")
		}
	})

	t.Run("traces", func(t *testing.T) {
		for path, want := range map[string]string{
			"/debug/traces":        "traces:/",
			"/debug/traces/":       "traces:/",
			"/debug/traces/chrome": "traces:/chrome",
		} {
			rec := get(t, path)
			if rec.Code != 200 || rec.Body.String() != want {
				t.Errorf("GET %s = %d %q, want 200 %q", path, rec.Code, rec.Body.String(), want)
			}
		}
	})

	t.Run("no-traces-option", func(t *testing.T) {
		bare := OpsHandler(opsGather, nil, nil)
		rec := httptest.NewRecorder()
		bare.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
		if rec.Code != 404 {
			t.Errorf("unmounted /debug/traces = %d, want 404", rec.Code)
		}
	})
}

// TestOpsHandlerReadiness covers /healthz as a real readiness probe:
// failing checks flip it to 503 with one "name: reason" line per failure,
// while /livez stays 200 regardless.
func TestOpsHandlerReadiness(t *testing.T) {
	stalled := false
	h := OpsHandler(opsGather, func() []string {
		if stalled {
			return []string{"stall: no epoch progress for 2s"}
		}
		return nil
	}, nil)
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/healthz"); rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Errorf("healthy healthz = %d %q", rec.Code, rec.Body.String())
	}
	stalled = true
	rec := get("/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("stalled healthz = %d, want 503", rec.Code)
	}
	if want := "stall: no epoch progress for 2s\n"; rec.Body.String() != want {
		t.Errorf("stalled healthz body = %q, want %q", rec.Body.String(), want)
	}
	if rec := get("/livez"); rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Errorf("livez = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}
}

// TestOpsHandlerWriteFailure covers the /healthz write-error path: a
// client that vanished mid-response must not crash the handler, only log.
func TestOpsHandlerWriteFailure(t *testing.T) {
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(prev)
	h := OpsHandler(opsGather, nil, nil)
	rec := &failingWriter{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if n := strings.Count(logged.String(), "/healthz write"); n != 1 {
		t.Errorf("write failure logged %d times, want 1:\n%s", n, logged.String())
	}
}

type failingWriter struct {
	*httptest.ResponseRecorder
}

func (f *failingWriter) Write([]byte) (int, error) {
	return 0, http.ErrHandlerTimeout
}
