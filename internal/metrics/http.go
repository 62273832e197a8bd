package metrics

import (
	"log"
	"net/http"
	"net/http/pprof"
	"strings"
)

// OpsHandler builds the fixed routes of an operator surface:
//
//	/metrics              Prometheus text exposition of gather()
//	/healthz              readiness probe: 200 "ok", or 503 with the lines
//	                      health() reports (one "name: reason" per failure)
//	/livez                liveness probe, always 200 "ok"
//	/debug/pprof/         the standard Go profiler endpoints
//	/debug/traces         recent/slow traces (only with a traces handler)
//	/debug/traces/chrome  Chrome trace-event export (likewise)
//
// gather is invoked per scrape and should return a fresh snapshot; a nil
// health is always ready. core.OpsHandler mounts the debug documents on
// the returned mux — it is the one place a server's surface is assembled.
func OpsHandler(gather func() []Family, health func() []string, traces http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteText(w, gather()); err != nil {
			// Headers are gone; all we can do is note the broken scrape.
			log.Printf("metrics: /metrics write: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		body := "ok\n"
		var failing []string
		if health != nil {
			failing = health()
		}
		if len(failing) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			body = strings.Join(failing, "\n") + "\n"
		}
		if _, err := w.Write([]byte(body)); err != nil {
			log.Printf("metrics: /healthz write: %v", err)
		}
	})
	mux.HandleFunc("/livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := w.Write([]byte("ok\n")); err != nil {
			log.Printf("metrics: /livez write: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if traces != nil {
		mux.Handle("/debug/traces/", http.StripPrefix("/debug/traces", traces))
		// The bare path strips to "", which a ServeMux would redirect to
		// the server root; rewrite it to the handler's "/" route instead.
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			r2 := r.Clone(r.Context())
			r2.URL.Path = "/"
			traces.ServeHTTP(w, r2)
		})
	}
	return mux
}
