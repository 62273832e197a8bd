package catalog

import (
	"testing"
	"time"

	"alohadb/internal/workload/ycsb"
)

// TestPaceJitterSpreadsArrivals: with jitter of one epoch, mean latency
// lands near half an epoch (uniform arrivals); without jitter, the closed
// loop self-synchronizes to epoch boundaries and waits a full epoch.
func TestPaceJitterSpreadsArrivals(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const epochDur = 20 * time.Millisecond
	cfg := ycsb.Config{Partitions: 2, KeysPerPartition: 10_000, ContentionIndex: 0.01, Distributed: true}
	measure := func(jitter time.Duration) time.Duration {
		c, err := NewAlohaYCSB(cfg, epochDur, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := RunAloha(AlohaRun{
			Cluster:       c,
			NewTxn:        alohaYCSBStream(cfg, 1),
			Clients:       2,
			Duration:      400 * time.Millisecond,
			SampleLatency: true,
			PaceJitter:    jitter,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency.N == 0 {
			t.Fatal("no latency samples")
		}
		return res.Latency.Mean
	}
	jittered := measure(epochDur)
	synced := measure(0)
	// Jittered arrivals should wait well under a full epoch on average;
	// synchronized arrivals wait about one epoch. Allow generous margins
	// for a loaded machine.
	if jittered > 17*time.Millisecond {
		t.Errorf("jittered mean %v, want well below one 20ms epoch", jittered)
	}
	if synced < 15*time.Millisecond {
		t.Errorf("synchronized mean %v, want about one epoch", synced)
	}
}

// TestSaturationModeDrains: a saturation run (no latency sampling) must
// not report throughput until installed functors are fully computed.
func TestSaturationModeDrains(t *testing.T) {
	cfg := ycsb.Config{Partitions: 2, KeysPerPartition: 5000, ContentionIndex: 0.01, Distributed: true}
	c, err := NewAlohaYCSB(cfg, 5*time.Millisecond, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := RunAloha(AlohaRun{
		Cluster:  c,
		NewTxn:   alohaYCSBStream(cfg, 1),
		Clients:  4,
		Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns == 0 {
		t.Fatal("no transactions")
	}
	// After the run returns, the processor queues are drained.
	s := c.Stats()
	if s.FunctorsComputed < s.FunctorsInstalled*9/10 {
		t.Errorf("computed %d of %d installed functors after drain", s.FunctorsComputed, s.FunctorsInstalled)
	}
}
