package calvin

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"alohadb/internal/kv"
	"alohadb/internal/wire"
)

func init() { RegisterMessages() }

// wireSamples returns populated samples of every Calvin message. Empty
// slices are nil, which is what the codec decodes them to.
func wireSamples() []any {
	txn := wireTxn{
		ID:       1<<32 | 7,
		Origin:   2,
		ReadSet:  []kv.Key{"a", "b"},
		WriteSet: []kv.Key{"b"},
		Proc:     "transfer",
		Args:     []byte{0, 0, 0, 10},
		// What crosses the wire is the wall clock: a sample with a
		// monotonic reading (time.Now()) could not round-trip DeepEqual.
		IssuedAt: time.Unix(1_700_000_000, 123_456_789),
	}
	return []any{
		MsgSubmit{Txn: txn},
		MsgSubmit{},
		MsgBatch{Epoch: 9, Txns: []wireTxn{txn, {ID: 8, Proc: "noop"}}},
		MsgBatch{Epoch: 10},
		MsgReads{TxnID: 7, From: 1, Reads: []ReadValue{
			{Key: "a", Value: kv.Value("v"), Found: true},
			{Key: "b"},
		}},
		MsgDone{TxnID: 7},
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, msg := range wireSamples() {
		t.Run(fmt.Sprintf("%T", msg), func(t *testing.T) {
			b, _, err := wire.AppendEnvelope(nil, &wire.Envelope{ID: 1, Kind: 1, Msg: msg})
			if err != nil {
				t.Fatal(err)
			}
			got, err := wire.DecodeEnvelope(b[wire.FrameLenSize:])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Msg, msg) {
				t.Errorf("round trip:\n got %#v\nwant %#v", got.Msg, msg)
			}
			// Every truncation of the frame is an error, never a panic
			// or a value: batches arrive off a socket.
			body := b[wire.FrameLenSize:]
			for i := 5; i < len(body); i++ {
				if _, err := wire.DecodeEnvelope(body[:i]); err == nil {
					t.Errorf("body[:%d] of %d decoded without error", i, len(body))
				}
			}
		})
	}
}

// TestWireKindsStable locks Calvin's kind bytes inside its range 64–79
// (package wire). Append new kinds, never renumber.
func TestWireKindsStable(t *testing.T) {
	for got, want := range map[wire.Kind]wire.Kind{
		wireKindSubmit: 64,
		wireKindBatch:  65,
		wireKindReads:  66,
		wireKindDone:   67,
	} {
		if got != want {
			t.Errorf("kind constant renumbered: got %d, want %d", got, want)
		}
		if got < 64 || got > 79 {
			t.Errorf("kind %d is outside calvin's range 64-79", got)
		}
	}
}

// TestWireGolden locks the frame bytes of a batch: the wire format changed
// if this fails, so bump wire.Version instead of editing the bytes.
func TestWireGolden(t *testing.T) {
	env := wire.Envelope{ID: 3, From: 2, Kind: 1, Msg: MsgBatch{Epoch: 9, Txns: []wireTxn{{
		ID: 7, Origin: 1,
		ReadSet: []kv.Key{"a", "b"}, WriteSet: []kv.Key{"b"},
		Proc: "xfer", Args: []byte{10},
		IssuedAt: time.Unix(0, 0x0102030405060708),
	}}}}
	b, _, err := wire.AppendEnvelope(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0xa0, 0x80, 0x80, 0x00, // frame len 32
		0x01, 0x03, 0x02, 0x00, // request, id 3, from 2, no flags
		0x41,       // msgKind: wireKindBatch (65)
		0x09,       // epoch 9
		0x01,       // one transaction
		0x07, 0x01, // id 7, origin 1
		0x02, 0x01, 'a', 0x01, 'b', // read set
		0x01, 0x01, 'b', // write set
		0x04, 'x', 'f', 'e', 'r', // proc
		0x01, 0x0a, // args
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // issued at, UnixNano LE
	}
	if !bytes.Equal(b, want) {
		t.Errorf("golden mismatch:\n got % x\nwant % x", b, want)
	}
}
