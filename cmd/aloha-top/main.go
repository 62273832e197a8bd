// Command aloha-top is the cluster-wide observability dashboard: it reads
// every server's /debug/obs document, one request per server, and renders
// one merged frame — minimum committed epoch, aggregate commit rate,
// per-server p99s, a stall/skew roll-up, and each server's share of the
// epoch critical paths (the "gating" column). -epochs N adds a drill-down
// of the N slowest epochs with their cluster-wide attribution (which server
// and stage gated each commit). When servers run the metrics flight
// recorder, the frame adds a cluster commit-rate sparkline and
// active-anomaly callouts; -timeseries adds a drill-down of every merged
// series with its trend strip.
//
// Interactive (refreshing) mode:
//
//	aloha-top -servers localhost:8000,localhost:8001,localhost:8002
//
// One-shot machine-readable mode for scripts and CI:
//
//	aloha-top -servers ... -cluster-json -once
//
// which scrapes twice (-rate-window apart) so commit rates are real, and
// reports whether the minimum committed epoch moved monotonically between
// the two scrapes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"alohadb/internal/obs/clusterview"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		servers    = flag.String("servers", "", "comma-separated ops (metrics-addr) endpoints, one per server")
		interval   = flag.Duration("interval", 2*time.Second, "refresh interval in dashboard mode")
		jsonOut    = flag.Bool("cluster-json", false, "emit merged cluster snapshots as JSON instead of the dashboard")
		once       = flag.Bool("once", false, "scrape once (twice -rate-window apart for rates) and exit")
		rateWindow = flag.Duration("rate-window", 500*time.Millisecond, "gap between the two scrapes of a -once run")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-server scrape timeout")
		epochsN    = flag.Int("epochs", 0, "epoch drill-down: show the N slowest epochs with critical-path attribution below the dashboard")
		timeseries = flag.Bool("timeseries", false, "timeseries drill-down: sparkline every merged flight-recorder series below the dashboard")
	)
	flag.Parse()
	if *servers == "" {
		return fmt.Errorf("aloha-top: missing -servers")
	}
	var addrs []string
	for _, a := range strings.Split(*servers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	sc := &clusterview.Scraper{Addrs: addrs, Client: &http.Client{Timeout: *timeout}}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *once {
		return oneShot(ctx, os.Stdout, sc, *rateWindow, *jsonOut, *epochsN, *timeseries)
	}
	return watch(ctx, sc, *interval, *jsonOut, *epochsN, *timeseries)
}

// oneShot scrapes twice so rates are measured, then emits a single frame.
// The JSON carries min_epoch_monotonic: the cluster's visibility floor
// must never move backwards.
func oneShot(ctx context.Context, w io.Writer, sc *clusterview.Scraper, window time.Duration, jsonOut bool, epochsN int, timeseries bool) error {
	prev := sc.Scrape(ctx)
	select {
	case <-time.After(window):
	case <-ctx.Done():
		return ctx.Err()
	}
	cur := clusterview.Delta(prev, sc.Scrape(ctx))
	if !jsonOut {
		frame(w, cur, epochsN, timeseries)
		return nil
	}
	out := struct {
		clusterview.ClusterSnapshot
		MinEpochMonotonic bool `json:"min_epoch_monotonic"`
	}{cur, cur.MinCommittedEpoch >= prev.MinCommittedEpoch}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func watch(ctx context.Context, sc *clusterview.Scraper, interval time.Duration, jsonOut bool, epochsN int, timeseries bool) error {
	var prev clusterview.ClusterSnapshot
	havePrev := false
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		cur := sc.Scrape(ctx)
		if havePrev {
			cur = clusterview.Delta(prev, cur)
		}
		if jsonOut {
			if err := json.NewEncoder(os.Stdout).Encode(cur); err != nil {
				return err
			}
		} else {
			// Clear and home, then draw the frame.
			fmt.Print("\x1b[2J\x1b[H")
			fmt.Printf("aloha-top  %s  (refresh %s, ctrl-c to quit)\n\n", cur.At.Format("15:04:05"), interval)
			frame(os.Stdout, cur, epochsN, timeseries)
		}
		prev, havePrev = cur, true
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil
		}
	}
}

// frame renders the dashboard and the drill-downs asked for.
func frame(w io.Writer, snap clusterview.ClusterSnapshot, epochsN int, timeseries bool) {
	clusterview.Render(w, snap)
	if epochsN > 0 {
		fmt.Fprintf(w, "\nslowest epochs (critical path):\n")
		clusterview.RenderEpochs(w, snap.EpochPaths, epochsN)
	}
	if timeseries {
		fmt.Fprintf(w, "\nflight recorder (merged series):\n")
		clusterview.RenderTimeseries(w, snap, 48)
	}
}
