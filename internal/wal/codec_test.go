package wal

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// TestEntryCodecProperty round-trips randomized install entries through
// the log framing.
func TestEntryCodecProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(version uint64, key string, handler string, arg []byte, readSet []string) bool {
		i++
		path := filepath.Join(dir, "wal-"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+(i/676)%26)))
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]kv.Key, len(readSet))
		for j, s := range readSet {
			keys[j] = kv.Key(s)
		}
		if len(keys) == 0 {
			keys = nil
		}
		if len(arg) == 0 {
			arg = nil
		}
		fn := functor.User("h"+handler, arg, keys)
		v := tstamp.Timestamp(version)
		if err := l.LogInstall(v, kv.Key(key), fn); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var got Entry
		n := 0
		if err := ReplayStrict(path, func(e Entry) error {
			got = e
			n++
			return nil
		}); err != nil {
			return false
		}
		if n != 1 || got.Kind != KindInstall || got.Version != v || got.Key != kv.Key(key) {
			return false
		}
		if got.Functor.Handler != "h"+handler || len(got.Functor.ReadSet) != len(keys) {
			return false
		}
		for j := range keys {
			if got.Functor.ReadSet[j] != keys[j] {
				return false
			}
		}
		return string(got.Functor.Arg) == string(arg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLogPathHelpers(t *testing.T) {
	if LogPath("/x", 3) != "/x/server-3.wal" {
		t.Errorf("LogPath = %q", LogPath("/x", 3))
	}
	if CheckpointPath("/x", 12) != "/x/server-12.ckpt" {
		t.Errorf("CheckpointPath = %q", CheckpointPath("/x", 12))
	}
	l, err := Open(filepath.Join(t.TempDir(), "w"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Path() == "" {
		t.Error("Path() empty")
	}
}

// TestEntryGolden pins the exact framed bytes Log writes for an install, an
// abort and an epoch marker: crc32(kind|len|payload) | kind | len | payload,
// the fixed fields big-endian. A change here breaks every log on disk.
func TestEntryGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fn := functor.User("h", []byte("a"), []kv.Key{"r"},
		functor.WithRecipients("c"), functor.WithDependentKeys("d"))
	if err := l.LogInstall(0x0102, "k", fn); err != nil {
		t.Fatal(err)
	}
	if err := l.LogAbort(0x0102, []kv.Key{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpochCommitted(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x07, 0x36, 0x18, 0xaa, // crc
		0x01,                   // kind: install
		0x00, 0x00, 0x00, 0x18, // payload length 24
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, // version
		0x01, 'k', // key
		0x08, 0x01, 'h', 0x01, 'a', // functor: USER, handler "h", arg "a"
		0x01, 0x01, 'r', 0x01, 0x01, 'c', 0x01, 0x01, 'd', // read set, recipients, dependent keys

		0x0f, 0x44, 0xda, 0x0d, // crc
		0x02,                   // kind: abort
		0x00, 0x00, 0x00, 0x0d, // payload length 13
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, // version
		0x02, 0x01, 'a', 0x01, 'b', // two keys

		0xb3, 0x0d, 0xdf, 0x11, // crc
		0x03,                   // kind: epoch committed
		0x00, 0x00, 0x00, 0x04, // payload length 4
		0x00, 0x00, 0x00, 0x03, // epoch 3
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden mismatch:\n got % x\nwant % x", got, want)
	}
}
