package catalog

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/calvin"
	"alohadb/internal/core"
)

// AlohaRun drives a closed loop of clients against an ALOHA-DB cluster.
type AlohaRun struct {
	Cluster *core.Cluster
	// NewTxn builds one transaction for the given client; each client gets
	// an independent stream (generators are not concurrency-safe).
	NewTxn func(client int) func() core.Txn
	// Clients is the closed-loop concurrency (offered load knob).
	Clients int
	// BatchSize groups transactions per install round-trip, the paper's
	// RPC batching convention (§V-A2). Default 1.
	BatchSize int
	// Duration bounds the measurement window.
	Duration time.Duration
	// SampleLatency awaits full functor processing for one transaction of
	// each batch and records issue-to-processed latency, the paper's
	// latency metric (§V-A3). When false, clients pace on install
	// acknowledgments (acknowledgment option 1, §IV-A) so the engine is
	// driven to saturation; the run then drains every processor queue
	// before the clock stops, so reported throughput still means "fully
	// computed transactions per second".
	SampleLatency bool
	// PaceJitter sleeps a uniform random delay in [0, PaceJitter) before
	// each batch, de-synchronizing closed-loop clients from the epoch
	// boundary. Latency-vs-epoch-duration measurements (Figure 11) use it
	// to model uniform arrivals: a transaction arriving at a uniformly
	// random point of an epoch waits half the epoch on average, the
	// paper's ~0.5 slope.
	PaceJitter time.Duration
}

// RunAloha executes the closed loop and reports committed throughput and
// sampled latencies.
func RunAloha(r AlohaRun) (Result, error) {
	if r.Clients <= 0 {
		r.Clients = 1
	}
	if r.BatchSize <= 0 {
		r.BatchSize = 1
	}
	ctx := context.Background()
	var (
		txns    atomic.Uint64
		aborts  atomic.Uint64
		wg      sync.WaitGroup
		mu      sync.Mutex
		lat     LatencySample
		stopped atomic.Bool
	)
	n := r.Cluster.NumServers()
	start := time.Now()
	for cli := 0; cli < r.Clients; cli++ {
		wg.Add(1)
		go func(cli int) {
			defer wg.Done()
			gen := r.NewTxn(cli)
			fe := r.Cluster.Server(cli % n)
			rng := rand.New(rand.NewSource(int64(cli) + 1))
			var local LatencySample
			for !stopped.Load() {
				if r.PaceJitter > 0 {
					time.Sleep(time.Duration(rng.Int63n(int64(r.PaceJitter))))
				}
				batch := make([]core.Txn, r.BatchSize)
				for i := range batch {
					batch[i] = gen()
				}
				issued := time.Now()
				results, handles, err := fe.SubmitBatch(ctx, batch)
				if err != nil {
					break
				}
				committed := uint64(0)
				for _, res := range results {
					if res.Aborted {
						aborts.Add(1)
					} else {
						committed++
					}
				}
				txns.Add(committed)
				if r.SampleLatency && len(handles) > 0 {
					// Await the last handle of the batch: its functors are
					// processed no earlier than its batch-mates'.
					h := handles[len(handles)-1]
					if ab, _ := h.Installed(); !ab {
						if _, _, err := h.Await(ctx); err == nil {
							local.Add(time.Since(issued))
						}
					}
				}
			}
			mu.Lock()
			lat.Merge(&local)
			mu.Unlock()
		}(cli)
	}
	time.Sleep(r.Duration)
	stopped.Store(true)
	wg.Wait()
	if !r.SampleLatency {
		// Saturation mode: charge the cost of finishing the asynchronous
		// functor computations to the measured window.
		r.Cluster.DrainProcessors()
	}
	elapsed := time.Since(start)
	return Result{
		Engine:     "ALOHA",
		Txns:       txns.Load(),
		Aborts:     aborts.Load(),
		Duration:   elapsed,
		Throughput: float64(txns.Load()) / elapsed.Seconds(),
		Latency:    lat.Summarize(),
	}, nil
}

// CalvinRun drives a closed loop of clients against a Calvin cluster.
type CalvinRun struct {
	Cluster   *calvin.Cluster
	NewTxn    func(client int) func() calvin.Txn
	Clients   int
	BatchSize int
	Duration  time.Duration
}

// RunCalvin executes the closed loop; Calvin latency spans issue to full
// execution on all participants (the replicated-processing equivalent of
// the paper's metric).
func RunCalvin(r CalvinRun) (Result, error) {
	if r.Clients <= 0 {
		r.Clients = 1
	}
	if r.BatchSize <= 0 {
		r.BatchSize = 1
	}
	var (
		txns    atomic.Uint64
		wg      sync.WaitGroup
		mu      sync.Mutex
		lat     LatencySample
		stopped atomic.Bool
	)
	parts := r.Cluster
	start := time.Now()
	for cli := 0; cli < r.Clients; cli++ {
		wg.Add(1)
		go func(cli int) {
			defer wg.Done()
			gen := r.NewTxn(cli)
			origin := cli % parts.NumPartitions()
			var local LatencySample
			for !stopped.Load() {
				batch := make([]calvin.Txn, r.BatchSize)
				for i := range batch {
					batch[i] = gen()
				}
				issued := time.Now()
				handles, err := parts.SubmitMany(origin, batch)
				if err != nil {
					break
				}
				// Closed loop: wait for the batch to finish everywhere.
				for _, h := range handles {
					<-h.Done()
				}
				txns.Add(uint64(len(handles)))
				local.Add(time.Since(issued))
			}
			mu.Lock()
			lat.Merge(&local)
			mu.Unlock()
		}(cli)
	}
	time.Sleep(r.Duration)
	stopped.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	return Result{
		Engine:     "Calvin",
		Txns:       txns.Load(),
		Duration:   elapsed,
		Throughput: float64(txns.Load()) / elapsed.Seconds(),
		Latency:    lat.Summarize(),
	}, nil
}
