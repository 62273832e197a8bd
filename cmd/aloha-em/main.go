// Command aloha-em runs the epoch manager for a multi-process ALOHA-DB
// cluster: it grants and revokes epoch authorizations at every server over
// the TCP transport (paper §III-A). See cmd/aloha-server for the full
// deployment example.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/epoch"
	"alohadb/internal/obs/tsdb"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		peers    = flag.String("peers", "", "comma-separated server addresses, index-ordered")
		emAddr   = flag.String("em", "", "this epoch manager's address")
		duration = flag.Duration("epoch", epoch.DefaultDuration, "unified epoch duration")
		timeout  = flag.Duration("switch-timeout", time.Second, "straggler escape timeout per epoch switch")
		start    = flag.Uint("start-epoch", 0, "first granted epoch (0 = 1); a restarted EM must start above the cluster's current epoch or the servers rightly refuse to regress (see aloha_server_epoch or /debug/stall on any server)")
		opsAddr  = flag.String("metrics-addr", "", "ops HTTP listener (/metrics, /debug/obs, /debug/epochs, /debug/timeseries); empty disables")
		tsEvery  = flag.Duration("timeseries-interval", 500*time.Millisecond, "flight recorder sample interval (must be positive)")
	)
	flag.Parse()
	if *peers == "" || *emAddr == "" {
		return fmt.Errorf("missing -peers or -em")
	}
	if *tsEvery <= 0 {
		return fmt.Errorf("aloha-em: -timeseries-interval must be positive, got %s", *tsEvery)
	}
	list := strings.Split(*peers, ",")
	book := make(map[transport.NodeID]string, len(list)+1)
	serverIDs := make([]transport.NodeID, len(list))
	for i, addr := range list {
		book[transport.NodeID(i)] = strings.TrimSpace(addr)
		serverIDs[i] = transport.NodeID(i)
	}
	emID := transport.NodeID(len(list))
	book[emID] = strings.TrimSpace(*emAddr)

	core.RegisterMessages()
	net := transport.NewTCPNetwork(book)
	defer net.Close()

	em, err := core.NewEMNode(net, emID, serverIDs, epoch.Config{
		Duration:      *duration,
		SwitchTimeout: *timeout,
		StartEpoch:    tstamp.Epoch(*start),
	})
	if err != nil {
		return err
	}
	defer em.Close()

	var rec *tsdb.Recorder
	if *opsAddr != "" {
		rec = core.NewEMRecorder(em.Manager, int(emID), *tsEvery)
		rec.Start()
		defer rec.Stop()
	}

	var ops *http.Server
	if *opsAddr != "" {
		ops = &http.Server{Addr: *opsAddr, Handler: core.OpsHandler(core.Ops{EM: em.Manager, Net: net, Recorder: rec})}
		go func() {
			if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "aloha-em: ops listener: %v\n", err)
			}
		}()
		fmt.Printf("aloha-em ops endpoint on http://%s/metrics\n", *opsAddr)
	}

	if err := em.Manager.Run(); err != nil {
		return err
	}
	fmt.Printf("aloha-em driving %d servers with %s epochs\n", len(list), *duration)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if ops != nil {
		ops.Close()
	}
	return nil
}
