package functor

import (
	"bytes"
	"testing"

	"alohadb/internal/kv"
)

// FuzzDecodeFunctor hardens the wire codec against malformed input: any
// byte string must either fail cleanly or decode into a functor that
// re-encodes to a decodable equal form.
func FuzzDecodeFunctor(f *testing.F) {
	f.Add(AppendFunctor(nil, Value(kv.Value("v"))))
	f.Add(AppendFunctor(nil, Add(42)))
	f.Add(AppendFunctor(nil, User("h", []byte("arg"), []kv.Key{"a", "b"},
		WithRecipients("c"), WithDependentKeys("d"))))
	f.Add(AppendFunctor(nil, DepMarker("det")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		fn, n, err := DecodeFunctor(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := AppendFunctor(nil, fn)
		fn2, _, err := DecodeFunctor(re)
		if err != nil {
			t.Fatalf("re-encoded functor failed to decode: %v", err)
		}
		if fn2.Type != fn.Type || fn2.Handler != fn.Handler || !bytes.Equal(fn2.Arg, fn.Arg) {
			t.Fatal("re-encode round trip mismatch")
		}
	})
}

// FuzzDecodeResolution does the same for resolution encodings, and holds
// ResolutionLen to the length of every encoding.
func FuzzDecodeResolution(f *testing.F) {
	f.Add(AppendResolution(nil, ValueResolution(kv.Value("v"))))
	f.Add(AppendResolution(nil, AbortResolution("reason")))
	f.Add(AppendResolution(nil, &Resolution{
		Kind:            Resolved,
		Value:           kv.Value("x"),
		DependentWrites: []DependentWrite{{Key: "k", Value: kv.Value("v")}, {Key: "d", Delete: true}},
	}))
	long := &Resolution{Kind: ResolvedAborted, Reason: string(bytes.Repeat([]byte{'r'}, 200))}
	for i := 0; i < 130; i++ {
		long.DependentWrites = append(long.DependentWrites, DependentWrite{Key: kv.Key(bytes.Repeat([]byte{'k'}, i)), Value: bytes.Repeat([]byte{'v'}, 2*i)})
	}
	f.Add(AppendResolution(nil, long)) // lengths and a count over one uvarint byte
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, n, err := DecodeResolution(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := AppendResolution(nil, res)
		if got := ResolutionLen(res); got != len(re) {
			t.Fatalf("ResolutionLen = %d, the encoding is %d bytes", got, len(re))
		}
		res2, _, err := DecodeResolution(re)
		if err != nil {
			t.Fatalf("re-encoded resolution failed to decode: %v", err)
		}
		if res2.Kind != res.Kind || !bytes.Equal(res2.Value, res.Value) || res2.Reason != res.Reason {
			t.Fatal("re-encode round trip mismatch")
		}
	})
}
