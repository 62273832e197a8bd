package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/placement"
	"alohadb/internal/tstamp"
	"alohadb/internal/wire"
)

func init() {
	RegisterMessages()
	// gob is the reference codec of TestHotMessagesDifferential and lives
	// in test files only; it needs every sample type by name.
	for _, msg := range samples() {
		gob.Register(msg)
	}
}

// samples returns fully populated samples of every core message with a
// wire codec (new kinds are appended: the fuzz seeds index into this).
// Slices that would be empty are nil (not []T{}): the codec decodes
// zero-length sequences as nil, as gob does, so DeepEqual round trips hold
// for both.
func samples() []any {
	ts := tstamp.Make(7, 42, 3)
	fn := &functor.Functor{
		Type:          functor.TypeUser,
		Handler:       "neworder",
		Arg:           []byte{0x01, 0x02, 0x03},
		ReadSet:       []kv.Key{"w:1", "i:77"},
		Recipients:    []kv.Key{"o:9"},
		DependentKeys: []kv.Key{"ol:9:1"},
	}
	put := &functor.Functor{Type: functor.TypeValue, Arg: []byte("v")}
	pm := &placement.Map{
		Gen: 4,
		Moves: []placement.Move{
			{Range: placement.Range{Start: "a", End: "m"}, To: 2, From: 6},
			{Range: placement.Range{Start: "m"}, To: 0, From: 6},
		},
	}
	return []any{
		MsgInstall{
			Txns: []InstallTxn{
				{
					Version:  ts,
					Writes:   []Write{{Key: "w:1", Functor: fn}, {Key: "o:9", Functor: put}},
					Requires: []kv.Key{"i:77"},
				},
				{Version: ts + 1, Writes: []Write{{Key: "x", Functor: put}}},
			},
			Placement: pm,
		},
		MsgInstall{Txns: []InstallTxn{{Version: ts}}},
		MsgInstallResp{
			Results: []InstallResult{
				{OK: true},
				{Err: "missing key i:404"},
				{WrongOwner: true},
			},
			Placement: pm,
		},
		MsgInstallResp{Results: []InstallResult{{OK: true}}},
		MsgAbortBatch{Aborts: []AbortReq{{Version: ts, Keys: []kv.Key{"a", "b"}, Fwd: true}}},
		MsgAbortBatch{Aborts: []AbortReq{
			{Version: ts, Keys: []kv.Key{"a"}},
			{Version: ts + 5, Keys: []kv.Key{"c", "d"}, Fwd: true},
		}},
		MsgFetch{Reqs: []FetchReq{{Kind: FetchRead, Key: "stock:3:42", Version: ts, Fwd: true}}},
		MsgFetchResp{Results: []FetchResult{{Value: kv.Value("val"), Found: true, Version: ts}}},
		MsgFetchResp{Results: []FetchResult{{}}},
		MsgFetch{Reqs: []FetchReq{
			{Kind: FetchRead, Key: "k1", Version: ts},
			{Kind: FetchRead, Key: "k2", Version: ts, Fwd: true},
		}},
		MsgFetchResp{Results: []FetchResult{
			{Value: kv.Value("x"), Found: true, Version: ts},
			{Err: "not owner"},
		}},
		MsgPush{Version: ts, Key: "k", Value: kv.Value("pushed"), Found: true, ValueVersion: ts - 1},
		MsgFetch{Reqs: []FetchReq{{Kind: FetchEnsure, Key: "det", Version: ts}}},
		MsgFetchResp{Results: []FetchResult{{Resolution: &functor.Resolution{
			Kind:  functor.Resolved,
			Value: kv.Value("r"),
			DependentWrites: []functor.DependentWrite{
				{Key: "dep1", Value: kv.Value("dv")},
				{Key: "dep2", Delete: true},
			},
		}}}},
		MsgFetchResp{},
		MsgFetch{Reqs: []FetchReq{{Kind: FetchUpTo, Key: "det", Version: ts, Fwd: true}}},
		MsgFetch{},
		MsgFetch{Reqs: []FetchReq{
			{Kind: FetchUpTo, Key: "d1", Version: ts},
			{Kind: FetchEnsure, Key: "d2", Version: ts, Fwd: true},
			{Kind: FetchRead, Key: "r1", Version: ts - 1},
		}},
		MsgFetchResp{Results: []FetchResult{
			{Resolution: &functor.Resolution{Kind: functor.ResolvedAborted, Reason: "constraint"}},
			{Err: "timeout"},
			{Value: kv.Value("y"), Found: true, Version: ts - 2},
		}},
		MsgApplyDeferred{
			Version: ts,
			Writes: []functor.DependentWrite{
				{Key: "dep", Value: kv.Value("v")},
			},
			Dissolve: []kv.Key{"gone"},
			Aborted:  true,
			Fwd:      true,
		},
		MsgWaitComputed{Key: "k", Version: ts},
		MsgWaitComputedResp{Kind: functor.ResolvedAborted, Reason: "why"},
		MsgGrant{E: 300},
		MsgRevoke{E: 301},
		MsgRevokeAck{E: 301},
		MsgCommitted{E: 299},
		MsgPing{},
		MsgPong{Node: 3, CommittedEpoch: 11, CurrentEpoch: 12},
		MsgScan{Prefix: "order:", Snapshot: ts},
		MsgScanResp{Pairs: []kv.Pair{
			{Key: "order:1", Value: kv.Value("a")},
			{Key: "order:2", Value: kv.Value("bb")},
		}},
		MsgScanResp{},
		MsgClientSubmit{
			Writes:       []Write{{Key: "w:1", Functor: fn}, {Key: "o:9", Functor: put}},
			Requires:     []kv.Key{"i:77"},
			WaitComputed: true,
		},
		MsgClientSubmitResp{Version: ts, Aborted: true, Reason: "missing key i:404"},
		MsgClientGet{Key: "stock:3:42", Snapshot: ts},
		MsgClientGetResp{Value: kv.Value("val"), Found: true},
		MsgClientGetResp{},
	}
}

func binaryRoundTrip(t testing.TB, msg any) any {
	t.Helper()
	env := wire.Envelope{ID: 1, Kind: 1, Msg: msg}
	b, _, err := wire.AppendEnvelope(nil, &env)
	if err != nil {
		t.Fatalf("%T: AppendEnvelope: %v", msg, err)
	}
	got, err := wire.DecodeEnvelope(b[wire.FrameLenSize:])
	if err != nil {
		t.Fatalf("%T: DecodeEnvelope: %v", msg, err)
	}
	return got.Msg
}

func gobRoundTrip(t testing.TB, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	boxed := msg
	if err := gob.NewEncoder(&buf).Encode(&boxed); err != nil {
		t.Fatalf("%T: gob encode: %v", msg, err)
	}
	var out any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("%T: gob decode: %v", msg, err)
	}
	return out
}

func TestHotMessagesRoundTrip(t *testing.T) {
	for _, msg := range samples() {
		t.Run(fmt.Sprintf("%T", msg), func(t *testing.T) {
			got := binaryRoundTrip(t, msg)
			if !reflect.DeepEqual(got, msg) {
				t.Errorf("binary round trip:\n got %#v\nwant %#v", got, msg)
			}
		})
	}
}

// TestHotMessagesDifferential holds the hand-written codec against a
// reference it shares no code with: reflective gob must decode every
// sample to the identical struct.
func TestHotMessagesDifferential(t *testing.T) {
	for _, msg := range samples() {
		t.Run(fmt.Sprintf("%T", msg), func(t *testing.T) {
			viaBinary := binaryRoundTrip(t, msg)
			viaGob := gobRoundTrip(t, msg)
			if !reflect.DeepEqual(viaBinary, viaGob) {
				t.Errorf("codecs disagree:\nbinary %#v\n   gob %#v", viaBinary, viaGob)
			}
		})
	}
}

// TestEveryMessageHasCodec: a message type that works on the in-memory
// mesh must not fail on a socket. Every exported Msg* struct declared in
// messages.go either has a wire codec or is listed here as a parameter
// struct of an in-process handler that no caller hands to a transport.
func TestEveryMessageHasCodec(t *testing.T) {
	inProcessOnly := map[string]bool{
		"MsgRangeSeal":       true,
		"MsgRangeExport":     true,
		"MsgRangeExportResp": true,
		"MsgRangeImport":     true,
		"MsgRangeImportResp": true,
		"MsgRangeRetire":     true,
		"MsgRangeRetireResp": true,
	}
	sampled := map[string]any{}
	for _, msg := range samples() {
		sampled[reflect.TypeOf(msg).Name()] = msg
	}
	file, err := parser.ParseFile(token.NewFileSet(), "messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		name := spec.Name.Name
		if _, isStruct := spec.Type.(*ast.StructType); !isStruct || !strings.HasPrefix(name, "Msg") {
			return true
		}
		declared++
		msg, ok := sampled[name]
		switch {
		case inProcessOnly[name] && ok:
			t.Errorf("%s is listed in-process-only but has a sample: drop one", name)
		case inProcessOnly[name]:
		case !ok:
			t.Errorf("%s has no entry in samples(): give it a wire codec and a sample, or list it in inProcessOnly", name)
		case !wire.Registered(msg):
			t.Errorf("%s has no wire codec: it would work on the mesh and fail on a socket", name)
		}
		return true
	})
	if want := len(sampled) + len(inProcessOnly); declared != want {
		t.Errorf("messages.go declares %d Msg* structs, samples() and inProcessOnly cover %d", declared, want)
	}
}

// TestWireKindsStable locks the kind bytes: they are wire format, and
// core's stay inside its range 1–63 (package wire). Append new kinds,
// never renumber, never reuse a retired one — and a frame carrying a retired
// kind is refused with an error naming it.
func TestWireKindsStable(t *testing.T) {
	want := map[wire.Kind]wire.Kind{
		wireKindInstall:          1,
		wireKindInstallResp:      2,
		wireKindAbortBatch:       4,
		wireKindPush:             9,
		wireKindApplyDeferred:    16,
		wireKindWaitComputed:     17,
		wireKindWaitComputedResp: 18,
		wireKindGrant:            19,
		wireKindRevoke:           20,
		wireKindRevokeAck:        21,
		wireKindCommitted:        22,
		wireKindPing:             23,
		wireKindPong:             24,
		wireKindScan:             25,
		wireKindScanResp:         26,
		wireKindClientSubmit:     27,
		wireKindClientSubmitResp: 28,
		wireKindClientGet:        29,
		wireKindClientGetResp:    30,
		wireKindFetch:            31,
		wireKindFetchResp:        32,
	}
	// The standalone abort (3), single and batched reads (5–8) and single
	// and batched ensures (10–15), replaced by MsgAbortBatch and MsgFetch.
	retired := []wire.Kind{3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15}
	for got, w := range want {
		if got != w {
			t.Errorf("kind constant renumbered: got %d, want %d", got, w)
		}
		if got < 1 || got > 63 {
			t.Errorf("kind %d is outside core's range 1-63", got)
		}
	}
	for _, k := range retired {
		if _, live := want[k]; live {
			t.Errorf("retired kind %d is in use again", k)
		}
		_, err := decodePayload(k, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("kind %d", k)) {
			t.Errorf("frame of retired kind %d: err = %v, want a refusal naming the kind", k, err)
		}
	}
}

// TestMessageGolden locks the full frame bytes of representative
// messages. A mismatch means the wire format changed: bump wire.Version
// instead of editing the bytes.
func TestMessageGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  wire.Envelope
		want []byte
	}{
		{"MsgFetch", wire.Envelope{ID: 5, From: 2, Kind: 1, Msg: MsgFetch{Reqs: []FetchReq{
			{Kind: FetchRead, Key: "k1", Version: 9},
		}}}, []byte{
			0x8c, 0x80, 0x80, 0x00, // frame len 12
			0x01,     // envelope kind: request
			0x05,     // id 5
			0x02,     // from 2
			0x00,     // flags: none
			0x1f,     // msgKind: wireKindFetch (31)
			0x01,     // one item
			0x00,     // FetchRead
			0x02,     // len("k1")
			'k', '1', // key
			0x09, // version 9
			0x00, // fwd = false
		}},
		{"MsgFetchResp", wire.Envelope{ID: 5, From: 1, Kind: 2, Msg: MsgFetchResp{Results: []FetchResult{
			{Value: kv.Value("v"), Found: true, Version: 9},
		}}}, []byte{
			0x8c, 0x80, 0x80, 0x00, // frame len 12
			0x02, 0x05, 0x01, 0x00, // response, id 5, from 1, no flags
			0x20,      // msgKind: wireKindFetchResp (32)
			0x01,      // one result
			0x01, 'v', // value
			0x01, // found
			0x09, // version 9
			0x00, // no resolution
			0x00, // no error
		}},
		{"MsgGrant", wire.Envelope{ID: 1, From: 6, Kind: 3, Msg: MsgGrant{E: 300}}, []byte{
			0x87, 0x80, 0x80, 0x00, // frame len 7
			0x03,       // envelope kind: oneway
			0x01,       // id 1
			0x06,       // from 6
			0x00,       // flags: none
			0x13,       // msgKind: wireKindGrant (19)
			0xac, 0x02, // epoch 300
		}},
		{"MsgScan", wire.Envelope{ID: 5, From: 2, Kind: 1, Msg: MsgScan{Prefix: "o:", Snapshot: 9}}, []byte{
			0x89, 0x80, 0x80, 0x00, // frame len 9
			0x01, 0x05, 0x02, 0x00, // request, id 5, from 2, no flags
			0x19,           // msgKind: wireKindScan (25)
			0x02, 'o', ':', // prefix
			0x09, // snapshot 9
		}},
		{"MsgScanResp", wire.Envelope{ID: 5, From: 1, Kind: 2, Msg: MsgScanResp{Pairs: []kv.Pair{
			{Key: "o:1", Value: kv.Value("a")}, {Key: "o:2"},
		}}}, []byte{
			0x91, 0x80, 0x80, 0x00, // frame len 17
			0x02, 0x05, 0x01, 0x00, // response, id 5, from 1, no flags
			0x1a,                // msgKind: wireKindScanResp (26)
			0x02,                // two pairs
			0x03, 'o', ':', '1', // key
			0x01, 'a', // value
			0x03, 'o', ':', '2', // key
			0x00, // empty value
		}},
		{"MsgClientSubmit", wire.Envelope{ID: 6, From: 7, Kind: 1, Msg: MsgClientSubmit{
			Writes:       []Write{{Key: "k", Functor: functor.Value(kv.Value("v"))}},
			Requires:     []kv.Key{"i"},
			WaitComputed: true,
		}}, []byte{
			0x94, 0x80, 0x80, 0x00, // frame len 20
			0x01, 0x06, 0x07, 0x00, // request, id 6, from 7, no flags
			0x1b,      // msgKind: wireKindClientSubmit (27)
			0x01,      // one write
			0x01, 'k', // key
			0x01,      // functor present
			0x01,      // f-type VALUE
			0x00,      // no handler
			0x01, 'v', // arg
			0x00, 0x00, 0x00, // empty read set, recipients, dependent keys
			0x01, 0x01, 'i', // requires {"i"}
			0x01, // wait for compute
		}},
		{"MsgClientSubmitResp", wire.Envelope{ID: 6, Kind: 2, Msg: MsgClientSubmitResp{
			Version: 300, Aborted: true, Reason: "no",
		}}, []byte{
			0x8b, 0x80, 0x80, 0x00, // frame len 11
			0x02, 0x06, 0x00, 0x00, // response, id 6, from 0, no flags
			0x1c,       // msgKind: wireKindClientSubmitResp (28)
			0xac, 0x02, // version 300
			0x01,           // aborted
			0x02, 'n', 'o', // reason
		}},
		{"MsgClientGet", wire.Envelope{ID: 8, From: 7, Kind: 1, Msg: MsgClientGet{Key: "k", Snapshot: 9}}, []byte{
			0x88, 0x80, 0x80, 0x00, // frame len 8
			0x01, 0x08, 0x07, 0x00, // request, id 8, from 7, no flags
			0x1d,      // msgKind: wireKindClientGet (29)
			0x01, 'k', // key
			0x09, // snapshot 9
		}},
		{"MsgClientGetResp", wire.Envelope{ID: 8, Kind: 2, Msg: MsgClientGetResp{Value: kv.Value("v"), Found: true}}, []byte{
			0x88, 0x80, 0x80, 0x00, // frame len 8
			0x02, 0x08, 0x00, 0x00, // response, id 8, from 0, no flags
			0x1e,      // msgKind: wireKindClientGetResp (30)
			0x01, 'v', // value
			0x01, // found
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, _, err := wire.AppendEnvelope(nil, &tc.env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, tc.want) {
				t.Errorf("golden mismatch:\n got % x\nwant % x", b, tc.want)
			}
		})
	}
}

// Benchmark messages sized like a hot TPC-C steady state: a 16-read fetch
// and a 2-txn install. The CI alloc guards grep these for "0 allocs/op";
// encode appends into a reused buffer, decode fills a reused struct from a
// stable byte slice — exactly the flusher's and reader's steady state.

func benchFetch() MsgFetch {
	m := MsgFetch{Reqs: make([]FetchReq, 16)}
	for i := range m.Reqs {
		m.Reqs[i] = FetchReq{Key: kv.Key(fmt.Sprintf("stock:%d:%d", i%4, i)), Version: tstamp.Make(9, uint32(i), 1)}
	}
	return m
}

func benchInstall() MsgInstall {
	ts := tstamp.Make(9, 7, 1)
	fn := &functor.Functor{Type: functor.TypeAdd, Arg: []byte{0, 0, 0, 0, 0, 0, 0, 5}}
	return MsgInstall{Txns: []InstallTxn{
		{Version: ts, Writes: []Write{{Key: "a", Functor: fn}, {Key: "b", Functor: fn}}},
		{Version: ts + 1, Writes: []Write{{Key: "c", Functor: fn}}, Requires: []kv.Key{"i:1"}},
	}}
}

func BenchmarkWireEncodeMsgFetch(b *testing.B) {
	m := benchFetch()
	buf := appendMsgFetch(nil, &m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendMsgFetch(buf[:0], &m)
	}
	_ = buf
}

func BenchmarkWireDecodeMsgFetch(b *testing.B) {
	src := benchFetch()
	buf := appendMsgFetch(nil, &src)
	var m MsgFetch
	// Warm up so the decode target's slices reach steady-state capacity.
	r := wire.NewReader(buf)
	decodeMsgFetchInto(&m, &r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := wire.NewReader(buf)
		decodeMsgFetchInto(&m, &r)
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}

func BenchmarkWireEncodeMsgInstall(b *testing.B) {
	m := benchInstall()
	buf := appendMsgInstall(nil, &m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendMsgInstall(buf[:0], &m)
	}
	_ = buf
}

func BenchmarkWireDecodeMsgInstall(b *testing.B) {
	src := benchInstall()
	buf := appendMsgInstall(nil, &src)
	var m MsgInstall
	r := wire.NewReader(buf)
	decodeMsgInstallInto(&m, &r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := wire.NewReader(buf)
		decodeMsgInstallInto(&m, &r)
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}

// BenchmarkEnvelopeInstall measures what the flusher and the read loop
// run: AppendEnvelope and DecodeEnvelope through the registry's wrappers,
// which BenchmarkWire*Msg* above go beneath. alloc-guard holds enc at 0
// allocs/op and dec at 8 (the message value, its slices and functors).
func BenchmarkEnvelopeInstall(b *testing.B) {
	env := wire.Envelope{ID: 7, From: 1, Kind: 1, Msg: benchInstall()}
	frame, _, err := wire.AppendEnvelope(nil, &env)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("enc", func(b *testing.B) {
		buf := frame
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf, _, err = wire.AppendEnvelope(buf[:0], &env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeEnvelope(frame[wire.FrameLenSize:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
