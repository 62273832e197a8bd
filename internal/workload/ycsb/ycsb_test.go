package ycsb

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"alohadb/internal/calvin"
	"alohadb/internal/core"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
)

func TestHotKeys(t *testing.T) {
	tests := []struct {
		ci   float64
		want int
	}{
		{ci: 0.1, want: 10},
		{ci: 0.01, want: 100},
		{ci: 0.001, want: 1000},
		{ci: 0.0001, want: 10000},
		{ci: 0.0017, want: 588},
	}
	for _, tt := range tests {
		cfg := Config{Partitions: 2, ContentionIndex: tt.ci}
		if got := cfg.HotKeys(); got != tt.want {
			t.Errorf("HotKeys(CI=%v) = %d, want %d", tt.ci, got, tt.want)
		}
	}
}

func TestPartitioner(t *testing.T) {
	tests := []struct {
		key  kv.Key
		n    int
		want int
	}{
		{key: Key(0, 5), n: 4, want: 0},
		{key: Key(3, 99), n: 4, want: 3},
		{key: Key(7, 0), n: 4, want: 3}, // wraps
	}
	for _, tt := range tests {
		if got := Partitioner(tt.key, tt.n); got != tt.want {
			t.Errorf("Partitioner(%q, %d) = %d, want %d", tt.key, tt.n, got, tt.want)
		}
	}
	// Non-microbenchmark keys fall back to hashing without panic.
	if p := Partitioner("other", 4); p < 0 || p >= 4 {
		t.Errorf("fallback partition out of range: %d", p)
	}
}

func TestGeneratorShape(t *testing.T) {
	cfg := Config{
		Partitions:       4,
		KeysPerPartition: 10000,
		ContentionIndex:  0.01, // 100 hot keys
		KeysPerTxn:       10,
		Distributed:      true,
		Seed:             1,
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		txn := g.Next()
		if len(txn.Keys) != 10 {
			t.Fatalf("txn has %d keys, want 10", len(txn.Keys))
		}
		parts := make(map[int]int) // partition -> hot key count
		partKeys := make(map[int]int)
		seen := make(map[kv.Key]bool)
		for _, k := range txn.Keys {
			if seen[k] {
				t.Fatalf("duplicate key %q", k)
			}
			seen[k] = true
			fields := strings.Split(string(k), ":")
			p, _ := strconv.Atoi(fields[1])
			idx, _ := strconv.Atoi(fields[2])
			partKeys[p]++
			if idx < 100 {
				parts[p]++
			}
		}
		if len(partKeys) != 2 {
			t.Fatalf("txn touches %d partitions, want 2", len(partKeys))
		}
		for p, hot := range parts {
			if hot != 1 {
				t.Fatalf("partition %d has %d hot keys, want exactly 1", p, hot)
			}
		}
		if len(parts) != 2 {
			t.Fatalf("hot keys on %d partitions, want 2", len(parts))
		}
	}
}

func TestGeneratorSinglePartition(t *testing.T) {
	g, err := NewGenerator(Config{Partitions: 4, KeysPerPartition: 1000, ContentionIndex: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	txn := g.Next()
	parts := make(map[int]bool)
	for _, k := range txn.Keys {
		parts[Partitioner(k, 4)] = true
	}
	if len(parts) != 1 {
		t.Errorf("non-distributed txn touches %d partitions", len(parts))
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := NewGenerator(Config{}); err == nil {
		t.Error("zero partitions should fail")
	}
	if _, err := NewGenerator(Config{Partitions: 1, Distributed: true}); err == nil {
		t.Error("distributed with one partition should fail")
	}
}

// TestEnginesAgree runs the same transaction stream through ALOHA-DB and
// Calvin and verifies both produce identical final counter values.
func TestEnginesAgree(t *testing.T) {
	const partitions = 2
	cfg := Config{
		Partitions:       partitions,
		KeysPerPartition: 200,
		ContentionIndex:  0.1,
		Distributed:      true,
		Seed:             7,
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var txns []Txn
	touched := make(map[kv.Key]int)
	for i := 0; i < 60; i++ {
		txn := g.Next()
		txns = append(txns, txn)
		for _, k := range txn.Keys {
			touched[k]++
		}
	}

	// ALOHA-DB.
	aloha, err := core.NewCluster(core.ClusterConfig{
		Servers:       partitions,
		EpochDuration: 3 * time.Millisecond,
		Router:        placement.NewStatic(partitions, Partitioner),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer aloha.Close()
	if err := aloha.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var lastHandle *core.TxnHandle
	for i, txn := range txns {
		h, err := aloha.Server(i%partitions).Submit(ctx, Aloha(txn))
		if err != nil {
			t.Fatal(err)
		}
		lastHandle = h
	}
	if _, _, err := lastHandle.Await(ctx); err != nil {
		t.Fatal(err)
	}

	// Calvin.
	procs := calvin.NewProcRegistry()
	RegisterCalvinProcs(procs)
	cal, err := calvin.NewCluster(calvin.Config{
		Partitions:    partitions,
		EpochDuration: 3 * time.Millisecond,
		Partitioner:   calvin.Partitioner(Partitioner),
		Procs:         procs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cal.Close()
	if err := cal.Start(); err != nil {
		t.Fatal(err)
	}
	var handles []*calvin.Handle
	for i, txn := range txns {
		hs, err := cal.SubmitMany(i%partitions, []calvin.Txn{Calvin(txn)})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hs...)
	}
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("calvin transaction never completed")
		}
	}

	for k, want := range touched {
		av, found, err := aloha.Server(0).Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		an, _ := kv.DecodeInt64(av)
		if !found || an != int64(want) {
			t.Errorf("aloha %s = %d found=%v, want %d", k, an, found, want)
		}
		cv, found := cal.Get(k)
		cn, _ := kv.DecodeInt64(cv)
		if !found || cn != int64(want) {
			t.Errorf("calvin %s = %d found=%v, want %d", k, cn, found, want)
		}
	}
}
