package functor

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"alohadb/internal/kv"
	"alohadb/internal/wire"
)

// The wire/log encoding of a functor is a compact, length-prefixed layout
// written with package wire:
//
//	type(1) | handler(str) | arg(bytes) | readSet(keys) | recipients(keys) | dependentKeys(keys)
//
// where str/bytes are uvarint-length-prefixed and keys is a uvarint count
// followed by that many strs (wire.AppendStrings). Resolutions use:
//
//	kind(1) | value(bytes) | reason(str) | depWrites(count, {key(str) value(bytes) delete(1)}...)
//
// ReadFunctor and ReadResolution are the one decoder of each layout: the
// log and core's messages both read through them.

// AppendFunctor appends the encoding of f to dst and returns the result.
func AppendFunctor(dst []byte, f *Functor) []byte {
	dst = append(dst, byte(f.Type))
	dst = wire.AppendString(dst, f.Handler)
	dst = wire.AppendBytes(dst, f.Arg)
	dst = wire.AppendStrings(dst, f.ReadSet)
	dst = wire.AppendStrings(dst, f.Recipients)
	return wire.AppendStrings(dst, f.DependentKeys)
}

// ReadFunctor decodes one functor from r into f, reusing f's slice
// capacity. The handler, argument and keys alias r's buffer. An f-type
// out of range fails r.
func ReadFunctor(r *wire.Reader, f *Functor) {
	f.Type = Type(r.Byte())
	if r.Err() == nil && (f.Type < TypeValue || f.Type > TypeDepMarker) {
		r.Fail(fmt.Errorf("functor: invalid f-type %d", f.Type))
		return
	}
	f.Handler = r.String()
	f.Arg = r.Bytes()
	f.ReadSet = wire.ReadStrings(r, f.ReadSet)
	f.Recipients = wire.ReadStrings(r, f.Recipients)
	f.DependentKeys = wire.ReadStrings(r, f.DependentKeys)
}

// DecodeFunctor decodes one functor from b, returning it and the number of
// bytes consumed. It reads a private copy: the functor does not alias b.
func DecodeFunctor(b []byte) (*Functor, int, error) {
	r := wire.NewReader(bytes.Clone(b))
	f := new(Functor)
	ReadFunctor(&r, f)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return f, len(b) - len(r.Rest()), nil
}

// AppendResolution appends the encoding of r to dst.
func AppendResolution(dst []byte, r *Resolution) []byte {
	dst = append(dst, byte(r.Kind))
	dst = wire.AppendBytes(dst, r.Value)
	dst = wire.AppendString(dst, r.Reason)
	return AppendDependentWrites(dst, r.DependentWrites)
}

// ResolutionLen is how many bytes AppendResolution writes for r, for a
// caller that sizes its buffer before it encodes.
func ResolutionLen(r *Resolution) int {
	n := 1 + wire.BytesLen(len(r.Value)) + wire.BytesLen(len(r.Reason)) + wire.UvarintLen(uint64(len(r.DependentWrites)))
	for _, w := range r.DependentWrites {
		n += wire.BytesLen(len(w.Key)) + wire.BytesLen(len(w.Value)) + 1
	}
	return n
}

// ReadResolution decodes one resolution from r into res, reusing its
// dependent-write capacity. Value, reason and keys alias r's buffer. A
// resolution kind out of range fails r.
func ReadResolution(r *wire.Reader, res *Resolution) {
	res.Kind = ResolutionKind(r.Byte())
	if r.Err() == nil && (res.Kind < Resolved || res.Kind > ResolvedSkipped) {
		r.Fail(fmt.Errorf("functor: invalid resolution kind %d", res.Kind))
		return
	}
	res.Value = r.Bytes()
	res.Reason = r.String()
	res.DependentWrites = ReadDependentWrites(r, res.DependentWrites)
}

// DecodeResolution decodes one resolution from b, returning it and the
// number of bytes consumed. It reads a private copy: the resolution does
// not alias b.
func DecodeResolution(b []byte) (*Resolution, int, error) {
	r := wire.NewReader(bytes.Clone(b))
	res := new(Resolution)
	ReadResolution(&r, res)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return res, len(b) - len(r.Rest()), nil
}

// AppendDependentWrites appends a dependent-write list: a uvarint count,
// then key(str) value(bytes) delete(1) each.
func AppendDependentWrites(dst []byte, ws []DependentWrite) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ws)))
	for _, w := range ws {
		dst = wire.AppendString(dst, string(w.Key))
		dst = wire.AppendBytes(dst, w.Value)
		dst = wire.AppendBool(dst, w.Delete)
	}
	return dst
}

// ReadDependentWrites reads a list AppendDependentWrites wrote into ws,
// reusing its capacity (an empty list leaves a nil ws nil). Keys and
// values alias r's buffer.
func ReadDependentWrites(r *wire.Reader, ws []DependentWrite) []DependentWrite {
	ws = wire.Resize(ws, r.Count(3)) // key, value and delete flag: a byte each at least
	for i := range ws {
		ws[i].Key = kv.Key(r.String())
		ws[i].Value = r.Bytes()
		ws[i].Delete = r.Bool()
	}
	return ws
}
