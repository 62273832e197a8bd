package replica

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/wal"
	"alohadb/internal/wire"
)

// TestShipEpochCarriesLogPayloads ships one entry of each kind and holds
// the backup link to the log's format: the entry that arrives is the entry
// that was sent, and the payload that crossed is byte for byte what
// wal.Log writes to disk for the same entry.
func TestShipEpochCarriesLogPayloads(t *testing.T) {
	RegisterMessages()
	install := wal.Entry{Kind: wal.KindInstall, Version: ts(3, 1), Key: "stock:1", Functor: functor.User(
		"neworder", []byte{1, 2, 3}, []kv.Key{"w:1", "i:7"}, functor.WithRecipients("o:9"))}
	for _, entry := range []wal.Entry{
		install,
		{Kind: wal.KindInstall, Version: ts(3, 2), Key: "big", Functor: functor.Value(bytes.Repeat([]byte("x"), 300))},
		{Kind: wal.KindAbort, Version: ts(3, 1), Keys: []kv.Key{"stock:1", "order:9"}},
		{Kind: wal.KindEpochCommitted, Epoch: 3},
	} {
		t.Run(fmt.Sprintf("kind-%d", entry.Kind), func(t *testing.T) {
			msg := MsgShipEpoch{E: 3, Entries: []wal.Entry{entry}}
			frame, _, err := wire.AppendEnvelope(nil, &wire.Envelope{ID: 1, Kind: 1, Msg: msg})
			if err != nil {
				t.Fatal(err)
			}
			got, err := wire.DecodeEnvelope(frame[wire.FrameLenSize:])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Msg, msg) {
				t.Errorf("round trip:\n got %#v\nwant %#v", got.Msg, msg)
			}

			// The shipped payload: past the envelope header (kind, id,
			// from, flags, msgKind), the epoch and the entry count.
			r := wire.NewReader(frame[wire.FrameLenSize+5:])
			if e, n := r.Uvarint(), r.Uvarint(); e != 3 || n != 1 {
				t.Fatalf("shipment header: epoch %d, %d entries", e, n)
			}
			kind, shipped := wal.EntryKind(r.Byte()), r.Bytes()
			if err := r.Finish(); err != nil || kind != entry.Kind {
				t.Fatalf("shipment entry: kind %d, err %v", kind, err)
			}
			if logged := loggedPayload(t, entry); !bytes.Equal(shipped, logged) {
				t.Errorf("shipped payload differs from the log's:\nshipped % x\n logged % x", shipped, logged)
			}
		})
	}

	// A corrupt payload is refused with the log's own error, not applied.
	frame, _, err := wire.AppendEnvelope(nil, &wire.Envelope{Kind: 1, Msg: MsgShipEpoch{E: 3, Entries: []wal.Entry{install}}})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] = 0xff // the last key-set count: 255 keys in 0 bytes
	if env, err := wire.DecodeEnvelope(frame[wire.FrameLenSize:]); err == nil {
		t.Errorf("corrupt entry decoded to %#v", env.Msg)
	}
}

// loggedPayload writes entry through a wal.Log and returns the record's
// payload as it sits in the file, behind the 9-byte crc/kind/length header.
func loggedPayload(t *testing.T, entry wal.Entry) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	switch entry.Kind {
	case wal.KindInstall:
		err = l.LogInstall(entry.Version, entry.Key, entry.Functor)
	case wal.KindAbort:
		err = l.LogAbort(entry.Version, entry.Keys)
	case wal.KindEpochCommitted:
		err = l.LogEpochCommitted(context.Background(), entry.Epoch)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw[9:]
}

// TestWireKindStable locks the replication message's kind byte inside
// replica's range 80–95 (package wire). Append new kinds, never renumber.
func TestWireKindStable(t *testing.T) {
	if wireKindShipEpoch != 80 {
		t.Errorf("kind constant renumbered: got %d, want 80", wireKindShipEpoch)
	}
}

// TestWireGolden locks the frame bytes of a shipment: the wire format (or
// the log's record format under it) changed if this fails.
func TestWireGolden(t *testing.T) {
	RegisterMessages()
	env := wire.Envelope{ID: 4, From: 1, Kind: 1, Msg: MsgShipEpoch{E: 3, Entries: []wal.Entry{
		{Kind: wal.KindInstall, Version: 0x0102, Key: "k", Functor: functor.Value(kv.Value("v"))},
		{Kind: wal.KindAbort, Version: 0x0102, Keys: []kv.Key{"k"}},
	}}}
	b, _, err := wire.AppendEnvelope(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0xa7, 0x80, 0x80, 0x00, // frame len 39
		0x01, 0x04, 0x01, 0x00, // request, id 4, from 1, no flags
		0x50,                                           // msgKind: wireKindShipEpoch (80)
		0x03,                                           // epoch 3
		0x02,                                           // two entries
		0x01,                                           // entry kind: install
		0x11,                                           // payload length 17
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, // version, big-endian
		0x01, 'k', // key
		0x01, 0x00, 0x01, 'v', 0x00, 0x00, 0x00, // functor: VALUE, no handler, arg "v", three empty key sets
		0x02,                                           // entry kind: abort
		0x0b,                                           // payload length 11
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, // version, big-endian
		0x01, 0x01, 'k', // one key
	}
	if !bytes.Equal(b, want) {
		t.Errorf("golden mismatch:\n got % x\nwant % x", b, want)
	}
}
