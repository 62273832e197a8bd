package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"alohadb/internal/trace"
)

// testMsg is a registered hot-style message.
type testMsg struct {
	Name string
	Data []byte
	N    uint64
}

// coldMsg has no registered codec: AppendEnvelope must refuse it.
type coldMsg struct{ S string }

const kindTestMsg Kind = 200

func init() {
	Register(kindTestMsg, testMsg{},
		func(dst []byte, msg any) []byte {
			m := msg.(testMsg)
			dst = AppendString(dst, m.Name)
			dst = AppendBytes(dst, m.Data)
			return binary.AppendUvarint(dst, m.N)
		},
		func(b []byte) (any, error) {
			r := NewReader(b)
			m := testMsg{Name: r.String(), Data: r.Bytes(), N: r.Uvarint()}
			return m, r.Err()
		})
}

func roundTripEnvelope(t *testing.T, env Envelope) Envelope {
	t.Helper()
	b, _, err := AppendEnvelope(nil, &env)
	if err != nil {
		t.Fatalf("AppendEnvelope: %v", err)
	}
	l, err := GetFrameLen(b)
	if err != nil {
		t.Fatalf("GetFrameLen: %v", err)
	}
	if l != len(b)-FrameLenSize {
		t.Fatalf("frame length %d, body is %d bytes", l, len(b)-FrameLenSize)
	}
	got, err := DecodeEnvelope(b[FrameLenSize:])
	if err != nil {
		t.Fatalf("DecodeEnvelope: %v", err)
	}
	return got
}

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []Envelope{
		{ID: 1, From: 0, Kind: 1, Msg: testMsg{Name: "k", Data: []byte{1, 2}, N: 99}},
		{ID: 1 << 40, From: 12, Kind: 2, ErrText: "boom", Msg: nil},
		{ID: 7, From: 3, Kind: 3, Trace: trace.SpanContext{Trace: 42, Span: 43, Sampled: true}, Msg: testMsg{}},
		{ID: 8, From: 1, Kind: 1, Trace: trace.SpanContext{Trace: 9, Span: 10}, Msg: testMsg{Name: "unsampled"}},
		{Kind: 3, Msg: testMsg{Data: bytes.Repeat([]byte("x"), 1<<16)}},
	}
	for i, env := range cases {
		got := roundTripEnvelope(t, env)
		if !reflect.DeepEqual(got, env) {
			t.Errorf("case %d:\n got %#v\nwant %#v", i, got, env)
		}
	}
}

// TestEnvelopeUnregisteredType: there is no fallback encoding. A type
// without a codec is an error that names it, and the stream it was being
// appended to is left as it was.
func TestEnvelopeUnregisteredType(t *testing.T) {
	stream := []byte{0xde, 0xad}
	env := Envelope{ID: 5, From: 2, Kind: 1, Msg: coldMsg{S: "cold path"}}
	out, _, err := AppendEnvelope(stream, &env)
	if err == nil || !strings.Contains(err.Error(), "wire.coldMsg") {
		t.Fatalf("err = %v, want one naming wire.coldMsg", err)
	}
	if !bytes.Equal(out, stream) {
		t.Errorf("stream after the refused frame = % x, want % x", out, stream)
	}
}

// TestEnvelopeGolden locks the byte layout. A failure means the wire
// format changed: bump Version and update the mixed-version story before
// touching the expected bytes.
func TestEnvelopeGolden(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		env := Envelope{ID: 5, From: 2, Kind: 1, Msg: testMsg{Name: "k1", Data: nil, N: 9}}
		b, _, err := AppendEnvelope(nil, &env)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{
			0x8a, 0x80, 0x80, 0x00, // frame len 10, fixed-width uvarint
			0x01,     // kind: request
			0x05,     // id 5
			0x02,     // from 2
			0x00,     // flags: none
			0xc8,     // msgKind 200
			0x02,     // len("k1")
			'k', '1', // name
			0x00, // len(data) = 0
			0x09, // N = 9
		}
		if !bytes.Equal(b, want) {
			t.Errorf("golden mismatch:\n got % x\nwant % x", b, want)
		}
	})
	t.Run("traced", func(t *testing.T) {
		env := Envelope{
			ID: 1, From: 6, Kind: 3,
			Trace: trace.SpanContext{Trace: 0x1122334455667788, Span: 0xAABBCCDDEEFF0011, Sampled: true},
			Msg:   testMsg{N: 300},
		}
		b, _, err := AppendEnvelope(nil, &env)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{
			0x99, 0x80, 0x80, 0x00, // frame len 25
			0x03,                                           // kind: oneway
			0x01,                                           // id 1
			0x06,                                           // from 6
			0x03,                                           // flags: traced|sampled
			0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // trace id LE
			0x11, 0x00, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, // span id LE
			0xc8,       // msgKind 200
			0x00,       // len(name) = 0
			0x00,       // len(data) = 0
			0xac, 0x02, // N = 300
		}
		if !bytes.Equal(b, want) {
			t.Errorf("golden mismatch:\n got % x\nwant % x", b, want)
		}
	})
}

func TestFrameLen(t *testing.T) {
	for _, l := range []int{0, 1, 127, 128, 1 << 14, 1 << 20, MaxFrameLen} {
		var b [4]byte
		PutFrameLen(b[:], l)
		got, err := GetFrameLen(b[:])
		if err != nil {
			t.Fatalf("len %d: %v", l, err)
		}
		if got != l {
			t.Errorf("len %d round-tripped as %d", l, got)
		}
		// The padded form must still be a valid uvarint (binary.Uvarint
		// is the reference decoder).
		v, n := binary.Uvarint(b[:])
		if n != 4 || int(v) != l {
			t.Errorf("len %d: binary.Uvarint = (%d, %d)", l, v, n)
		}
	}
	if _, err := GetFrameLen([]byte{0x80, 0x80, 0x80, 0x80}); err == nil {
		t.Error("continuation bit in final byte not rejected")
	}
}

func TestPreamble(t *testing.T) {
	if err := CheckPreamble(Preamble[:]); err != nil {
		t.Fatal(err)
	}
	if err := CheckPreamble([]byte{0x00, 'A', 'W', 0x7f}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
	if err := CheckPreamble([]byte{0x01, 'A', 'W', Version}); err == nil {
		t.Error("bad magic accepted")
	}
	if err := CheckPreamble(Preamble[:2]); err == nil {
		t.Error("short preamble accepted")
	}
}

func TestDecodeEnvelopeErrors(t *testing.T) {
	env := Envelope{ID: 3, Kind: 1, Msg: testMsg{Name: "n"}}
	b, _, err := AppendEnvelope(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	body := b[FrameLenSize:]
	// Every truncation of a valid frame must error, never panic.
	for i := 0; i < len(body); i++ {
		if _, err := DecodeEnvelope(body[:i]); err == nil && i < len(body)-1 {
			// Some prefixes decode cleanly only when they happen to end
			// exactly at a field boundary with an empty-payload kind; a
			// registered-kind frame cut mid-payload must fail.
			t.Errorf("truncated body [:%d] decoded without error", i)
		}
	}
	// Unregistered kind byte.
	bad := append([]byte{0x01, 0x01, 0x01, 0x00}, 0x77)
	if _, err := DecodeEnvelope(bad); err == nil {
		t.Error("unknown payload kind decoded without error")
	}
	// Message-kind byte 0 is reserved: an error that says so, never a
	// value, whatever follows it.
	for _, body := range [][]byte{
		{0x01, 0x01, 0x01, 0x00, 0x00},
		{0x01, 0x01, 0x01, 0x00, 0x00, 0x0c, 0xff, 0x83},
	} {
		env, err := DecodeEnvelope(body)
		if err == nil || !strings.Contains(err.Error(), "kind 0 is reserved") || env.Msg != nil {
			t.Errorf("message kind 0: Msg = %v, err = %v", env.Msg, err)
		}
	}
}

func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{0x05})
	if got := r.Uvarint(); got != 5 {
		t.Fatalf("Uvarint = %d", got)
	}
	// Exhausted: every subsequent read fails and returns zero values.
	if b := r.Bytes(); b != nil {
		t.Errorf("Bytes after exhaustion = %v", b)
	}
	if r.Err() == nil {
		t.Fatal("no sticky error after short read")
	}
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint after error = %d", got)
	}
}

func TestReaderCount(t *testing.T) {
	b := binary.AppendUvarint(nil, 1<<40) // absurd count, tiny payload
	r := NewReader(b)
	if n := r.Count(1); n != 0 || r.Err() == nil {
		t.Errorf("Count accepted %d with %d bytes of payload", n, len(b))
	}
}

func TestRegisterReservedKindPanics(t *testing.T) {
	for _, k := range []Kind{0, KindNone} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(kind %d) did not panic", k)
				}
			}()
			Register(k, testMsg{}, nil, nil)
		}()
	}
}

func TestRegisterIdempotent(t *testing.T) {
	// Same type, same kind: replacement is allowed (startup paths rerun).
	Register(kindTestMsg, testMsg{},
		func(dst []byte, msg any) []byte {
			m := msg.(testMsg)
			dst = AppendString(dst, m.Name)
			dst = AppendBytes(dst, m.Data)
			return binary.AppendUvarint(dst, m.N)
		},
		func(b []byte) (any, error) {
			r := NewReader(b)
			m := testMsg{Name: r.String(), Data: r.Bytes(), N: r.Uvarint()}
			return m, r.Err()
		})
	if !Registered(testMsg{}) {
		t.Fatal("testMsg lost its registration")
	}
	// One type under two kinds, or two types under one kind: programming
	// errors worth a panic. The second would overwrite the first owner's
	// decoder and garble its frames.
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("re-registering a type under a new kind", func() { Register(kindTestMsg+1, testMsg{}, nil, nil) })
	mustPanic("registering a second type under a taken kind", func() { Register(kindTestMsg, coldMsg{}, nil, nil) })
	if Registered(coldMsg{}) {
		t.Error("the refused registration took effect")
	}
}
