package wal

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/mvstore"
	"alohadb/internal/tstamp"
)

// FuzzReplay hardens log replay against arbitrary file contents: lenient
// replay must never error or panic, and strict replay must never panic.
func FuzzReplay(f *testing.F) {
	// Seed with a valid log.
	dir, err := os.MkdirTemp("", "walfuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, "seed")
	l, err := Open(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	_ = l.LogInstall(ts(1, 1), "k", functor.User("h", []byte("a"), []kv.Key{"r"}))
	_ = l.LogAbort(ts(1, 1), []kv.Key{"k"})
	_ = l.LogEpochCommitted(context.Background(), 1)
	l.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		count := 0
		if err := Replay(path, func(Entry) error { count++; return nil }); err != nil {
			t.Fatalf("lenient replay errored: %v", err)
		}
		// Strict replay may error but must not panic, and must visit at
		// least as many entries as... exactly the lenient count.
		strict := 0
		_ = ReplayStrict(path, func(Entry) error { strict++; return nil })
		if strict != count {
			t.Fatalf("strict visited %d entries, lenient %d", strict, count)
		}
		// Recovery over arbitrary bytes must not panic either.
		if _, _, err := Recover(path); err != nil {
			t.Fatalf("recover errored on lenient-replayable log: %v", err)
		}
	})
}

// FuzzLoadCheckpoint hardens the checkpoint loader, which parses an
// untrusted file: every input must either load or fail cleanly, and a store
// that loads must write a checkpoint that loads again at the same bound.
func FuzzLoadCheckpoint(f *testing.F) {
	src := mvstore.New()
	src.PutFinal("a", ts(1, 1), functor.Resolved, kv.Value("v"), true)
	src.PutFinal("gone", ts(1, 2), functor.ResolvedDeleted, nil, true)
	src.PutFinal("empty", ts(1, 3), functor.Resolved, nil, true)
	seedPath := filepath.Join(f.TempDir(), "seed")
	if err := WriteCheckpoint(src, tstamp.End(1), seedPath); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i <= len(seed); i++ {
		f.Add(seed[:i])
	}
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, bound, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again")
		if err := WriteCheckpoint(store, bound, again); err != nil {
			t.Fatalf("rewriting a loaded checkpoint: %v", err)
		}
		if _, got, err := LoadCheckpoint(again); err != nil || got != bound {
			t.Fatalf("reloading a rewritten checkpoint: bound %v (want %v), err %v", got, bound, err)
		}
	})
}
