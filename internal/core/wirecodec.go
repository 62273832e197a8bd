// Binary wire codecs of the core messages (paper §V-A2). Every message a
// caller hands to a transport — installs, fetches (remote reads and
// ensures) and their responses, aborts, pushes, deferred-write delivery,
// epoch control, stall-capture pings, scans and the client protocol — gets an
// explicit append/decode pair registered with internal/wire; a message
// without one cannot be sent over TCP (TestEveryMessageHasCodec).
//
// Layout conventions: uvarint for counts, timestamps, and epochs;
// length-prefixed bytes/strings; key lists as wire.AppendStrings writes
// them; one presence byte ahead of nullable pointers. Functors and
// resolutions are written and read by package functor (AppendFunctor,
// ReadFunctor and their resolution pair), the same code the WAL uses, so
// the wire and the log share one layout and one decoder.
//
// The decode*Into functions decode into caller-owned structs, reusing
// slice capacity and aliasing the frame buffer for keys, values, and
// handler names. Decoding into a reused message is therefore
// allocation-free steady-state (CI-guarded by BenchmarkWireDecode*);
// the registry wrappers allocate exactly one fresh message value per
// frame, whose fields alias the frame buffer that the transport hands
// over with it.
package core

import (
	"encoding/binary"
	"fmt"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/transport"
	"alohadb/internal/tstamp"
	"alohadb/internal/wire"
)

// Wire kinds of the core messages, in core's range 1–63 (package wire).
// The byte values are wire format: never renumber, only append. Retired,
// never to be reused, and refused at decode: 3 (the standalone abort), 5–8
// (single and batched reads) and 10–15 (single and batched ensures), all
// replaced by MsgAbortBatch and MsgFetch.
const (
	wireKindInstall          wire.Kind = 1
	wireKindInstallResp      wire.Kind = 2
	wireKindAbortBatch       wire.Kind = 4
	wireKindPush             wire.Kind = 9
	wireKindApplyDeferred    wire.Kind = 16
	wireKindWaitComputed     wire.Kind = 17
	wireKindWaitComputedResp wire.Kind = 18
	wireKindGrant            wire.Kind = 19
	wireKindRevoke           wire.Kind = 20
	wireKindRevokeAck        wire.Kind = 21
	wireKindCommitted        wire.Kind = 22
	wireKindPing             wire.Kind = 23
	wireKindPong             wire.Kind = 24
	wireKindScan             wire.Kind = 25
	wireKindScanResp         wire.Kind = 26
	wireKindClientSubmit     wire.Kind = 27
	wireKindClientSubmitResp wire.Kind = 28
	wireKindClientGet        wire.Kind = 29
	wireKindClientGetResp    wire.Kind = 30
	wireKindFetch            wire.Kind = 31
	wireKindFetchResp        wire.Kind = 32
)

// --- functor / resolution: one presence byte, then functor's layout ---

func appendFunctorPtr(dst []byte, f *functor.Functor) []byte {
	if f == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return functor.AppendFunctor(dst, f)
}

// decodeFunctorPtrInto decodes a presence-prefixed functor into *fp,
// reusing the pointed-to struct's slice capacity. Keys, handler, and arg
// alias the frame buffer.
func decodeFunctorPtrInto(fp **functor.Functor, r *wire.Reader) {
	if !r.Bool() {
		*fp = nil
		return
	}
	if *fp == nil {
		*fp = new(functor.Functor)
	}
	functor.ReadFunctor(r, *fp)
}

func appendResolutionPtr(dst []byte, res *functor.Resolution) []byte {
	if res == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return functor.AppendResolution(dst, res)
}

func decodeResolutionPtrInto(rp **functor.Resolution, r *wire.Reader) {
	if !r.Bool() {
		*rp = nil
		return
	}
	if *rp == nil {
		*rp = new(functor.Resolution)
	}
	functor.ReadResolution(r, *rp)
}

// --- placement maps (rare on the wire: only during migration races) ---

func appendPlacementPtr(dst []byte, m *placement.Map) []byte {
	if m == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(m.Gen))
	dst = binary.AppendUvarint(dst, uint64(len(m.Moves)))
	for _, mv := range m.Moves {
		dst = wire.AppendString(dst, string(mv.Range.Start))
		dst = wire.AppendString(dst, string(mv.Range.End))
		dst = binary.AppendUvarint(dst, uint64(mv.To))
		dst = binary.AppendUvarint(dst, uint64(mv.From))
	}
	return dst
}

func decodePlacementPtr(r *wire.Reader) *placement.Map {
	if !r.Bool() {
		return nil
	}
	m := &placement.Map{Gen: placement.Generation(r.Uvarint())}
	n := r.Count(4)
	if n > 0 {
		m.Moves = make([]placement.Move, n)
		for i := range m.Moves {
			m.Moves[i].Range.Start = kv.Key(r.String())
			m.Moves[i].Range.End = kv.Key(r.String())
			m.Moves[i].To = transport.NodeID(r.Uvarint())
			m.Moves[i].From = tstamp.Epoch(r.Uvarint())
		}
	}
	if r.Err() != nil {
		return nil
	}
	return m
}

// --- write sets (MsgInstall, MsgClientSubmit) ---

func appendWrites(dst []byte, ws []Write) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ws)))
	for i := range ws {
		dst = wire.AppendString(dst, string(ws[i].Key))
		dst = appendFunctorPtr(dst, ws[i].Functor)
	}
	return dst
}

func decodeWritesInto(s []Write, r *wire.Reader) []Write {
	s = wire.Resize(s, r.Count(3))
	for i := range s {
		s[i].Key = kv.Key(r.String())
		decodeFunctorPtrInto(&s[i].Functor, r)
	}
	return s
}

// --- MsgInstall / MsgInstallResp ---

func appendMsgInstall(dst []byte, m *MsgInstall) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Txns)))
	for i := range m.Txns {
		t := &m.Txns[i]
		dst = binary.AppendUvarint(dst, uint64(t.Version))
		dst = appendWrites(dst, t.Writes)
		dst = wire.AppendStrings(dst, t.Requires)
	}
	return appendPlacementPtr(dst, m.Placement)
}

func decodeMsgInstallInto(m *MsgInstall, r *wire.Reader) {
	n := r.Count(2)
	m.Txns = wire.Resize(m.Txns, n)
	for i := range m.Txns {
		t := &m.Txns[i]
		t.Version = tstamp.Timestamp(r.Uvarint())
		t.Writes = decodeWritesInto(t.Writes, r)
		t.Requires = wire.ReadStrings(r, t.Requires)
	}
	m.Placement = decodePlacementPtr(r)
}

func appendMsgInstallResp(dst []byte, m *MsgInstallResp) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Results)))
	for i := range m.Results {
		res := &m.Results[i]
		var b byte
		if res.OK {
			b |= 1
		}
		if res.WrongOwner {
			b |= 2
		}
		dst = append(dst, b)
		dst = wire.AppendString(dst, res.Err)
	}
	return appendPlacementPtr(dst, m.Placement)
}

func decodeMsgInstallRespInto(m *MsgInstallResp, r *wire.Reader) {
	n := r.Count(2)
	m.Results = wire.Resize(m.Results, n)
	for i := range m.Results {
		b := r.Byte()
		m.Results[i].OK = b&1 != 0
		m.Results[i].WrongOwner = b&2 != 0
		m.Results[i].Err = r.String()
	}
	m.Placement = decodePlacementPtr(r)
}

// --- MsgAbortBatch ---

func appendMsgAbortBatch(dst []byte, m *MsgAbortBatch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Aborts)))
	for i := range m.Aborts {
		a := &m.Aborts[i]
		dst = binary.AppendUvarint(dst, uint64(a.Version))
		dst = wire.AppendStrings(dst, a.Keys)
		dst = wire.AppendBool(dst, a.Fwd)
	}
	return dst
}

func decodeMsgAbortBatchInto(m *MsgAbortBatch, r *wire.Reader) {
	m.Aborts = wire.Resize(m.Aborts, r.Count(3))
	for i := range m.Aborts {
		a := &m.Aborts[i]
		a.Version = tstamp.Timestamp(r.Uvarint())
		a.Keys = wire.ReadStrings(r, a.Keys)
		a.Fwd = r.Bool()
	}
}

// --- MsgFetch / MsgFetchResp ---

func appendMsgFetch(dst []byte, m *MsgFetch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Reqs)))
	for i := range m.Reqs {
		q := &m.Reqs[i]
		dst = append(dst, byte(q.Kind))
		dst = wire.AppendString(dst, string(q.Key))
		dst = binary.AppendUvarint(dst, uint64(q.Version))
		dst = wire.AppendBool(dst, q.Fwd)
	}
	return dst
}

func decodeMsgFetchInto(m *MsgFetch, r *wire.Reader) {
	m.Reqs = wire.Resize(m.Reqs, r.Count(4))
	for i := range m.Reqs {
		q := &m.Reqs[i]
		q.Kind = FetchKind(r.Byte())
		if r.Err() == nil && q.Kind > FetchUpTo {
			r.Fail(fmt.Errorf("core: invalid fetch kind %d", q.Kind))
			return
		}
		q.Key = kv.Key(r.String())
		q.Version = tstamp.Timestamp(r.Uvarint())
		q.Fwd = r.Bool()
	}
}

func appendMsgFetchResp(dst []byte, m *MsgFetchResp) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Results)))
	for i := range m.Results {
		res := &m.Results[i]
		dst = wire.AppendBytes(dst, res.Value)
		dst = wire.AppendBool(dst, res.Found)
		dst = binary.AppendUvarint(dst, uint64(res.Version))
		dst = appendResolutionPtr(dst, res.Resolution)
		dst = wire.AppendString(dst, res.Err)
	}
	return dst
}

func decodeMsgFetchRespInto(m *MsgFetchResp, r *wire.Reader) {
	m.Results = wire.Resize(m.Results, r.Count(5))
	for i := range m.Results {
		res := &m.Results[i]
		res.Value = r.Bytes()
		res.Found = r.Bool()
		res.Version = tstamp.Timestamp(r.Uvarint())
		decodeResolutionPtrInto(&res.Resolution, r)
		res.Err = r.String()
	}
}

// --- MsgPush ---

func appendMsgPush(dst []byte, m *MsgPush) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Version))
	dst = wire.AppendString(dst, string(m.Key))
	dst = wire.AppendBytes(dst, m.Value)
	dst = wire.AppendBool(dst, m.Found)
	return binary.AppendUvarint(dst, uint64(m.ValueVersion))
}

func decodeMsgPushInto(m *MsgPush, r *wire.Reader) {
	m.Version = tstamp.Timestamp(r.Uvarint())
	m.Key = kv.Key(r.String())
	m.Value = r.Bytes()
	m.Found = r.Bool()
	m.ValueVersion = tstamp.Timestamp(r.Uvarint())
}

// --- MsgApplyDeferred ---

func appendMsgApplyDeferred(dst []byte, m *MsgApplyDeferred) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Version))
	dst = functor.AppendDependentWrites(dst, m.Writes)
	dst = wire.AppendStrings(dst, m.Dissolve)
	var b byte
	if m.Aborted {
		b |= 1
	}
	if m.Fwd {
		b |= 2
	}
	return append(dst, b)
}

func decodeMsgApplyDeferredInto(m *MsgApplyDeferred, r *wire.Reader) {
	m.Version = tstamp.Timestamp(r.Uvarint())
	m.Writes = functor.ReadDependentWrites(r, m.Writes)
	m.Dissolve = wire.ReadStrings(r, m.Dissolve)
	b := r.Byte()
	m.Aborted = b&1 != 0
	m.Fwd = b&2 != 0
}

// --- MsgWaitComputed ---

func appendMsgWaitComputed(dst []byte, m *MsgWaitComputed) []byte {
	dst = wire.AppendString(dst, string(m.Key))
	dst = binary.AppendUvarint(dst, uint64(m.Version))
	return wire.AppendBool(dst, m.Fwd)
}

func decodeMsgWaitComputedInto(m *MsgWaitComputed, r *wire.Reader) {
	m.Key = kv.Key(r.String())
	m.Version = tstamp.Timestamp(r.Uvarint())
	m.Fwd = r.Bool()
}

func appendMsgWaitComputedResp(dst []byte, m *MsgWaitComputedResp) []byte {
	dst = append(dst, byte(m.Kind))
	return wire.AppendString(dst, m.Reason)
}

func decodeMsgWaitComputedRespInto(m *MsgWaitComputedResp, r *wire.Reader) {
	m.Kind = functor.ResolutionKind(r.Byte())
	m.Reason = r.String()
}

// --- epoch control + ping ---

func appendEpoch(dst []byte, e tstamp.Epoch) []byte { return binary.AppendUvarint(dst, uint64(e)) }

func appendMsgPong(dst []byte, m *MsgPong) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Node))
	dst = binary.AppendUvarint(dst, m.CommittedEpoch)
	return binary.AppendUvarint(dst, m.CurrentEpoch)
}

func decodeMsgPongInto(m *MsgPong, r *wire.Reader) {
	m.Node = int(r.Uvarint())
	m.CommittedEpoch = r.Uvarint()
	m.CurrentEpoch = r.Uvarint()
}

// --- scans and the client protocol ---

func appendMsgScanResp(dst []byte, m *MsgScanResp) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Pairs)))
	for i := range m.Pairs {
		dst = wire.AppendString(dst, string(m.Pairs[i].Key))
		dst = wire.AppendBytes(dst, m.Pairs[i].Value)
	}
	return dst
}

func decodeMsgScanRespInto(m *MsgScanResp, r *wire.Reader) {
	m.Pairs = wire.Resize(m.Pairs, r.Count(2))
	for i := range m.Pairs {
		m.Pairs[i].Key = kv.Key(r.String())
		m.Pairs[i].Value = r.Bytes()
	}
}

func appendMsgClientSubmit(dst []byte, m *MsgClientSubmit) []byte {
	dst = appendWrites(dst, m.Writes)
	dst = wire.AppendStrings(dst, m.Requires)
	return wire.AppendBool(dst, m.WaitComputed)
}

func decodeMsgClientSubmitInto(m *MsgClientSubmit, r *wire.Reader) {
	m.Writes = decodeWritesInto(m.Writes, r)
	m.Requires = wire.ReadStrings(r, m.Requires)
	m.WaitComputed = r.Bool()
}

// registerCodecs installs the codec of every core message. The closures
// are spelled out on purpose: a generic helper calls the append/decode pair
// indirectly (as func values or as methods of a constraint), the message
// escapes, and BenchmarkEnvelopeInstall goes 0 -> 1 and 8 -> 10 allocs/op.
func registerCodecs() {
	codec := func(kind wire.Kind, enc wire.AppendFunc, dec wire.DecodeFunc, proto any) {
		wire.Register(kind, proto, enc, dec)
	}

	codec(wireKindInstall,
		func(dst []byte, msg any) []byte { m := msg.(MsgInstall); return appendMsgInstall(dst, &m) },
		func(b []byte) (any, error) {
			var m MsgInstall
			r := wire.NewReader(b)
			decodeMsgInstallInto(&m, &r)
			return m, r.Finish()
		}, MsgInstall{})
	codec(wireKindInstallResp,
		func(dst []byte, msg any) []byte { m := msg.(MsgInstallResp); return appendMsgInstallResp(dst, &m) },
		func(b []byte) (any, error) {
			var m MsgInstallResp
			r := wire.NewReader(b)
			decodeMsgInstallRespInto(&m, &r)
			return m, r.Finish()
		}, MsgInstallResp{})
	codec(wireKindAbortBatch,
		func(dst []byte, msg any) []byte { m := msg.(MsgAbortBatch); return appendMsgAbortBatch(dst, &m) },
		func(b []byte) (any, error) {
			var m MsgAbortBatch
			r := wire.NewReader(b)
			decodeMsgAbortBatchInto(&m, &r)
			return m, r.Finish()
		}, MsgAbortBatch{})
	codec(wireKindFetch,
		func(dst []byte, msg any) []byte { m := msg.(MsgFetch); return appendMsgFetch(dst, &m) },
		func(b []byte) (any, error) {
			var m MsgFetch
			r := wire.NewReader(b)
			decodeMsgFetchInto(&m, &r)
			return m, r.Finish()
		}, MsgFetch{})
	codec(wireKindFetchResp,
		func(dst []byte, msg any) []byte { m := msg.(MsgFetchResp); return appendMsgFetchResp(dst, &m) },
		func(b []byte) (any, error) {
			var m MsgFetchResp
			r := wire.NewReader(b)
			decodeMsgFetchRespInto(&m, &r)
			return m, r.Finish()
		}, MsgFetchResp{})
	codec(wireKindPush,
		func(dst []byte, msg any) []byte { m := msg.(MsgPush); return appendMsgPush(dst, &m) },
		func(b []byte) (any, error) {
			var m MsgPush
			r := wire.NewReader(b)
			decodeMsgPushInto(&m, &r)
			return m, r.Finish()
		}, MsgPush{})
	codec(wireKindApplyDeferred,
		func(dst []byte, msg any) []byte {
			m := msg.(MsgApplyDeferred)
			return appendMsgApplyDeferred(dst, &m)
		},
		func(b []byte) (any, error) {
			var m MsgApplyDeferred
			r := wire.NewReader(b)
			decodeMsgApplyDeferredInto(&m, &r)
			return m, r.Finish()
		}, MsgApplyDeferred{})
	codec(wireKindWaitComputed,
		func(dst []byte, msg any) []byte {
			m := msg.(MsgWaitComputed)
			return appendMsgWaitComputed(dst, &m)
		},
		func(b []byte) (any, error) {
			var m MsgWaitComputed
			r := wire.NewReader(b)
			decodeMsgWaitComputedInto(&m, &r)
			return m, r.Finish()
		}, MsgWaitComputed{})
	codec(wireKindWaitComputedResp,
		func(dst []byte, msg any) []byte {
			m := msg.(MsgWaitComputedResp)
			return appendMsgWaitComputedResp(dst, &m)
		},
		func(b []byte) (any, error) {
			var m MsgWaitComputedResp
			r := wire.NewReader(b)
			decodeMsgWaitComputedRespInto(&m, &r)
			return m, r.Finish()
		}, MsgWaitComputedResp{})
	codec(wireKindGrant,
		func(dst []byte, msg any) []byte { return appendEpoch(dst, msg.(MsgGrant).E) },
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgGrant{E: tstamp.Epoch(r.Uvarint())}
			return m, r.Finish()
		}, MsgGrant{})
	codec(wireKindRevoke,
		func(dst []byte, msg any) []byte { return appendEpoch(dst, msg.(MsgRevoke).E) },
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgRevoke{E: tstamp.Epoch(r.Uvarint())}
			return m, r.Finish()
		}, MsgRevoke{})
	codec(wireKindRevokeAck,
		func(dst []byte, msg any) []byte { return appendEpoch(dst, msg.(MsgRevokeAck).E) },
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgRevokeAck{E: tstamp.Epoch(r.Uvarint())}
			return m, r.Finish()
		}, MsgRevokeAck{})
	codec(wireKindCommitted,
		func(dst []byte, msg any) []byte { return appendEpoch(dst, msg.(MsgCommitted).E) },
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgCommitted{E: tstamp.Epoch(r.Uvarint())}
			return m, r.Finish()
		}, MsgCommitted{})
	codec(wireKindPing,
		func(dst []byte, msg any) []byte { return dst },
		func(b []byte) (any, error) {
			if len(b) != 0 {
				return nil, fmt.Errorf("core: MsgPing carries %d stray bytes", len(b))
			}
			return MsgPing{}, nil
		}, MsgPing{})
	codec(wireKindPong,
		func(dst []byte, msg any) []byte { m := msg.(MsgPong); return appendMsgPong(dst, &m) },
		func(b []byte) (any, error) {
			var m MsgPong
			r := wire.NewReader(b)
			decodeMsgPongInto(&m, &r)
			return m, r.Finish()
		}, MsgPong{})
	codec(wireKindScan,
		func(dst []byte, msg any) []byte {
			m := msg.(MsgScan)
			dst = wire.AppendString(dst, string(m.Prefix))
			return binary.AppendUvarint(dst, uint64(m.Snapshot))
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgScan{Prefix: kv.Key(r.String()), Snapshot: tstamp.Timestamp(r.Uvarint())}
			return m, r.Finish()
		}, MsgScan{})
	codec(wireKindScanResp,
		func(dst []byte, msg any) []byte { m := msg.(MsgScanResp); return appendMsgScanResp(dst, &m) },
		func(b []byte) (any, error) {
			var m MsgScanResp
			r := wire.NewReader(b)
			decodeMsgScanRespInto(&m, &r)
			return m, r.Finish()
		}, MsgScanResp{})
	codec(wireKindClientSubmit,
		func(dst []byte, msg any) []byte { m := msg.(MsgClientSubmit); return appendMsgClientSubmit(dst, &m) },
		func(b []byte) (any, error) {
			var m MsgClientSubmit
			r := wire.NewReader(b)
			decodeMsgClientSubmitInto(&m, &r)
			return m, r.Finish()
		}, MsgClientSubmit{})
	codec(wireKindClientSubmitResp,
		func(dst []byte, msg any) []byte {
			m := msg.(MsgClientSubmitResp)
			dst = binary.AppendUvarint(dst, uint64(m.Version))
			dst = wire.AppendBool(dst, m.Aborted)
			return wire.AppendString(dst, m.Reason)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgClientSubmitResp{Version: tstamp.Timestamp(r.Uvarint()), Aborted: r.Bool(), Reason: r.String()}
			return m, r.Finish()
		}, MsgClientSubmitResp{})
	codec(wireKindClientGet,
		func(dst []byte, msg any) []byte {
			m := msg.(MsgClientGet)
			dst = wire.AppendString(dst, string(m.Key))
			return binary.AppendUvarint(dst, uint64(m.Snapshot))
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgClientGet{Key: kv.Key(r.String()), Snapshot: tstamp.Timestamp(r.Uvarint())}
			return m, r.Finish()
		}, MsgClientGet{})
	codec(wireKindClientGetResp,
		func(dst []byte, msg any) []byte {
			m := msg.(MsgClientGetResp)
			return wire.AppendBool(wire.AppendBytes(dst, m.Value), m.Found)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := MsgClientGetResp{Value: r.Bytes(), Found: r.Bool()}
			return m, r.Finish()
		}, MsgClientGetResp{})
}
