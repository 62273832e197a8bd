package core

import (
	"reflect"
	"testing"

	"alohadb/internal/wire"
)

// fuzzMessageCodec drives one message kind's decoder with arbitrary
// payload bytes. Two properties:
//
//  1. No panic: adversarial bytes must yield an error or a message,
//     never a crash (the decoder is fed straight off the network).
//  2. Fixpoint: when the bytes do decode, re-encoding the result and
//     decoding again must reproduce the same struct. Byte equality is
//     NOT required — the decoder accepts non-minimal varints the
//     encoder never emits — but the struct round trip must be stable.
func fuzzMessageCodec(f *testing.F, kind wire.Kind, samples []any) {
	RegisterMessages()
	for _, msg := range samples {
		b, _, err := wire.AppendEnvelope(nil, &wire.Envelope{Kind: 1, Msg: msg})
		if err != nil {
			f.Fatal(err)
		}
		// Seed with the payload only: everything after the envelope
		// header's msgKind byte.
		env, err := wire.DecodeEnvelope(b[wire.FrameLenSize:])
		if err != nil || env.Msg == nil {
			f.Fatalf("bad seed: %v", err)
		}
		payload := payloadOf(f, msg)
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg, err := decodePayload(kind, payload)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		re := payloadOf(t, msg)
		msg2, err := decodePayload(kind, re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v\npayload % x", err, re)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("fixpoint violated:\n first %#v\nsecond %#v", msg, msg2)
		}
	})
}

// payloadOf encodes msg through the envelope codec and strips the
// envelope header, returning just the message payload bytes.
func payloadOf(t testing.TB, msg any) []byte {
	t.Helper()
	b, _, err := wire.AppendEnvelope(nil, &wire.Envelope{Kind: 1, Msg: msg})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Header: len(4) | kind(1) | id(1, value 0) | from(1, value 0) |
	// flags(1, value 0) | msgKind(1).
	const header = wire.FrameLenSize + 5
	return b[header:]
}

// decodePayload runs the registered decoder for kind over payload by
// synthesizing a minimal envelope around it.
func decodePayload(kind wire.Kind, payload []byte) (any, error) {
	body := append([]byte{1, 0, 0, 0, byte(kind)}, payload...)
	env, err := wire.DecodeEnvelope(body)
	if err != nil {
		return nil, err
	}
	return env.Msg, nil
}

func FuzzMsgInstall(f *testing.F) {
	fuzzMessageCodec(f, wireKindInstall, []any{
		samples()[0], samples()[1], MsgInstall{},
	})
}

func FuzzMsgInstallResp(f *testing.F) {
	fuzzMessageCodec(f, wireKindInstallResp, []any{
		samples()[2], MsgInstallResp{},
	})
}

func FuzzMsgFetch(f *testing.F) {
	fuzzMessageCodec(f, wireKindFetch, []any{
		benchFetch(), MsgFetch{}, samples()[17], samples()[12],
	})
}

func FuzzMsgFetchResp(f *testing.F) {
	fuzzMessageCodec(f, wireKindFetchResp, []any{
		samples()[10], MsgFetchResp{}, samples()[18],
	})
}

func FuzzMsgApplyDeferred(f *testing.F) {
	fuzzMessageCodec(f, wireKindApplyDeferred, []any{
		MsgApplyDeferred{Version: 9, Dissolve: nil, Aborted: true},
	})
}

func FuzzMsgClientSubmit(f *testing.F) {
	fuzzMessageCodec(f, wireKindClientSubmit, []any{
		samples()[31], MsgClientSubmit{WaitComputed: true},
	})
}

func FuzzMsgPush(f *testing.F) {
	fuzzMessageCodec(f, wireKindPush, []any{
		MsgPush{Version: 5, Key: "k", Found: true},
	})
}

// FuzzEnvelope fuzzes the whole envelope decoder — header parsing, trace
// flags, error text, and the registered payload dispatch — with raw
// frame bodies.
func FuzzEnvelope(f *testing.F) {
	RegisterMessages()
	for _, msg := range samples() {
		b, _, err := wire.AppendEnvelope(nil, &wire.Envelope{ID: 3, From: 1, Kind: 1, Msg: msg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[wire.FrameLenSize:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := wire.DecodeEnvelope(body)
		if err != nil {
			return
		}
		// A decoded message is of a registered type: it re-encodes.
		b2, _, err := wire.AppendEnvelope(nil, &env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
		env2, err := wire.DecodeEnvelope(b2[wire.FrameLenSize:])
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		if !reflect.DeepEqual(env, env2) {
			t.Fatalf("fixpoint violated:\n first %#v\nsecond %#v", env, env2)
		}
	})
}
