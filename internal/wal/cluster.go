package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

// Cluster-level recovery: rebuild all partitions after a crash. File
// layout inside dir: server-<i>.wal and, where one was written,
// server-<i>.ckpt.

// LogPath returns the WAL path for server id under dir; wire it through
// core.ClusterConfig.DurabilityFactory.
func LogPath(dir string, id int) string {
	return filepath.Join(dir, "server-"+strconv.Itoa(id)+".wal")
}

// CheckpointPath returns the checkpoint path for server id under dir.
func CheckpointPath(dir string, id int) string {
	return filepath.Join(dir, "server-"+strconv.Itoa(id)+".ckpt")
}

// RecoverCluster rebuilds every partition from dir (checkpoint if present
// plus log) and returns the stores and the epoch the replacement cluster
// should start at.
func RecoverCluster(dir string, servers int) ([]*mvstore.Store, tstamp.Epoch, error) {
	stores := make([]*mvstore.Store, servers)
	var last tstamp.Epoch
	for i := 0; i < servers; i++ {
		ckpt := CheckpointPath(dir, i)
		if !fileExists(ckpt) {
			ckpt = ""
		}
		store, l, err := RecoverFull(ckpt, LogPath(dir, i))
		if err != nil {
			return nil, 0, fmt.Errorf("wal: recover server %d: %w", i, err)
		}
		stores[i] = store
		if l > last {
			last = l
		}
	}
	return stores, last + 1, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
