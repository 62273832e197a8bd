// Package wire is ALOHA-DB's hand-rolled binary wire format, the one
// encoding a message takes to a socket (paper §V-A2): explicit
// append/decode codecs, length-prefixed frames, varint integers, and
// zero-copy byte/string views into the frame buffer, so steady-state
// encode and decode allocate nothing beyond the frame itself.
//
// # Frame layout
//
//	preamble (once per stream direction): 0x00 'A' 'W' version
//	frame:   len(4, fixed-width uvarint) | body
//	body:    kind(1) | id(uvarint) | from(uvarint) | flags(1)
//	         [trace id(8) span id(8)]   when flags&TRACED
//	         [errtext(str)]             when flags&ERRTEXT
//	         msgKind(1) | payload(*)
//
// The frame length counts the body only. It is written as a fixed-width
// 4-byte uvarint (continuation bits forced on the first three bytes) so
// the encoder can reserve the field, append the body, and patch the
// length in place without shifting; binary.Uvarint accepts the padded
// form. Four bytes bound a frame at 2^28-1 bytes.
//
// The preamble is a version check on untrusted input: a receiver reads it
// off every inbound stream and closes a connection that opens with
// anything else (CheckPreamble).
//
// # Message payloads
//
// Every message type that crosses a socket registers an explicit
// AppendFunc/DecodeFunc pair under a Kind byte (see Register); there is no
// fallback, and AppendEnvelope refuses a type without one. Kinds are wire
// format — appended, never renumbered — and each package that owns
// messages has a range (its TestWireKindsStable enforces it):
//
//	0        reserved: never a payload, rejected at decode
//	1–63     internal/core
//	64–79    retired (Calvin's, which runs only on the in-memory mesh; never reuse)
//	80–95    retired (the backup link's; never reuse)
//	200–254  tests
//	255      KindNone: an absent payload
package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"alohadb/internal/trace"
)

// Version is the wire-format version carried in the preamble; bumping it
// makes an incompatible layout change detectable at accept time instead of
// as garbled decodes.
const Version = 0x01

// Preamble is what a sender writes once, before its first frame.
var Preamble = [4]byte{0x00, 'A', 'W', Version}

// CheckPreamble validates a received preamble.
func CheckPreamble(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("wire: short preamble (%d bytes)", len(b))
	}
	if b[0] != Preamble[0] || b[1] != Preamble[1] || b[2] != Preamble[2] {
		return fmt.Errorf("wire: bad preamble % x", b[:4])
	}
	if b[3] != Version {
		return fmt.Errorf("wire: version %d not supported (want %d)", b[3], Version)
	}
	return nil
}

// MaxFrameLen bounds one frame's body; it is what fits the fixed 4-byte
// length field.
const MaxFrameLen = 1<<28 - 1

// FrameLenSize is the size of the frame length field.
const FrameLenSize = 4

// PutFrameLen writes l into the 4-byte length field at the front of b as
// a fixed-width (continuation-padded) uvarint.
func PutFrameLen(b []byte, l int) {
	b[0] = byte(l)&0x7f | 0x80
	b[1] = byte(l>>7)&0x7f | 0x80
	b[2] = byte(l>>14)&0x7f | 0x80
	b[3] = byte(l >> 21)
}

// GetFrameLen reads the 4-byte length field.
func GetFrameLen(b []byte) (int, error) {
	if len(b) < FrameLenSize {
		return 0, fmt.Errorf("wire: short frame length (%d bytes)", len(b))
	}
	if b[3]&0x80 != 0 {
		return 0, fmt.Errorf("wire: corrupt frame length % x", b[:4])
	}
	l := int(b[0]&0x7f) | int(b[1]&0x7f)<<7 | int(b[2]&0x7f)<<14 | int(b[3])<<21
	return l, nil
}

// Envelope flag bits.
const (
	flagTraced  = 1 << 0
	flagSampled = 1 << 1
	flagErrText = 1 << 2
)

// Envelope is the transport-level message wrapper: request/response
// correlation, sender identity, error text for failed calls, and the
// propagated trace context. Msg holds the decoded payload, a value of a
// registered message type.
type Envelope struct {
	ID      uint64
	From    int
	Kind    uint8
	ErrText string
	Trace   trace.SpanContext
	Msg     any
}

// AppendEnvelope appends one length-prefixed frame carrying env to dst. A
// payload whose type has no registered codec is an error naming the type.
// On error dst is returned truncated to its original length, leaving the
// stream clean.
//
// The middle result is always false: bench/probe.go reads three results,
// and the next benchmark PR deletes it with the wire.gob_fallbacks row.
func AppendEnvelope(dst []byte, env *Envelope) (out []byte, _ bool, err error) {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, env.Kind)
	dst = binary.AppendUvarint(dst, env.ID)
	dst = binary.AppendUvarint(dst, uint64(env.From))
	var flags byte
	if env.Trace.Valid() {
		flags |= flagTraced
		if env.Trace.Sampled {
			flags |= flagSampled
		}
	}
	if env.ErrText != "" {
		flags |= flagErrText
	}
	dst = append(dst, flags)
	if flags&flagTraced != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(env.Trace.Trace))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(env.Trace.Span))
	}
	if flags&flagErrText != 0 {
		dst = AppendString(dst, env.ErrText)
	}
	if env.Msg == nil {
		dst = append(dst, byte(KindNone))
	} else {
		e, ok := loadRegistry().enc[reflect.TypeOf(env.Msg)]
		if !ok {
			return dst[:off], false, fmt.Errorf("wire: no codec registered for %T", env.Msg)
		}
		dst = append(dst, byte(e.kind))
		dst = e.fn(dst, env.Msg)
	}
	l := len(dst) - off - FrameLenSize
	if l > MaxFrameLen {
		return dst[:off], false, fmt.Errorf("wire: frame of %d bytes exceeds limit", l)
	}
	PutFrameLen(dst[off:], l)
	return dst, false, nil
}

// DecodeEnvelope decodes one frame body (the length field already
// stripped). The returned envelope's Msg, ErrText, and any byte/string
// fields of a registered payload alias b: the caller must hand ownership
// of b to the envelope and never reuse it. That aliasing is what makes
// decode allocation-free; frames are read into exact-size buffers whose
// lifetime the decoded message controls.
func DecodeEnvelope(b []byte) (Envelope, error) {
	r := NewReader(b)
	var env Envelope
	env.Kind = r.Byte()
	env.ID = r.Uvarint()
	env.From = int(r.Uvarint())
	flags := r.Byte()
	if flags&flagTraced != 0 {
		env.Trace.Trace = trace.TraceID(r.U64())
		env.Trace.Span = trace.SpanID(r.U64())
		env.Trace.Sampled = flags&flagSampled != 0
	}
	if flags&flagErrText != 0 {
		env.ErrText = r.String()
	}
	mk := Kind(r.Byte())
	if err := r.Err(); err != nil {
		return env, err
	}
	payload := r.Rest()
	switch mk {
	case KindNone:
		if len(payload) != 0 {
			return env, fmt.Errorf("wire: %d stray bytes after empty payload", len(payload))
		}
	case kindReserved:
		return env, fmt.Errorf("wire: message kind %d is reserved", mk)
	default:
		dec := loadRegistry().dec[mk]
		if dec == nil {
			return env, fmt.Errorf("wire: no decoder registered for kind %d", mk)
		}
		msg, err := dec(payload)
		if err != nil {
			return env, fmt.Errorf("wire: kind %d: %w", mk, err)
		}
		env.Msg = msg
	}
	return env, nil
}

// Kind tags a payload codec inside the envelope. Zero and KindNone are
// reserved; packages register kinds in between (ranges: package comment).
type Kind uint8

const (
	// kindReserved is never a payload: a zeroed or truncated header must
	// not decode to a value.
	kindReserved Kind = 0
	// KindNone marks an absent payload (error-only responses).
	KindNone Kind = 255
)

// AppendFunc appends msg's payload encoding to dst. The msg is the same
// value the sender passed (a registered concrete type).
type AppendFunc func(dst []byte, msg any) []byte

// DecodeFunc decodes one payload. The returned value must be the same
// concrete type the encoder accepts (handlers type-switch on it), and it
// may alias b.
type DecodeFunc func(b []byte) (any, error)

type encEntry struct {
	kind Kind
	fn   AppendFunc
}

type registryState struct {
	enc map[reflect.Type]encEntry
	dec [256]DecodeFunc
}

var (
	regMu sync.Mutex
	reg   atomic.Pointer[registryState]
)

func init() {
	reg.Store(&registryState{enc: map[reflect.Type]encEntry{}})
}

func loadRegistry() *registryState { return reg.Load() }

// Register installs the codec for one message type under kind. The
// registry is copy-on-write: lookups on the hot path are a single atomic
// load, registration happens once at startup. Re-registering the same
// type/kind replaces the functions (idempotent startup paths call this
// repeatedly); a type under a second kind, or a second type under a taken
// kind, panics: the latter would overwrite the first owner's decoder.
func Register(kind Kind, prototype any, enc AppendFunc, dec DecodeFunc) {
	if kind == kindReserved || kind == KindNone {
		panic(fmt.Sprintf("wire: kind %d is reserved", kind))
	}
	t := reflect.TypeOf(prototype)
	regMu.Lock()
	defer regMu.Unlock()
	old := reg.Load()
	if e, ok := old.enc[t]; ok && e.kind != kind {
		panic(fmt.Sprintf("wire: %v already registered as kind %d (re-register as %d)", t, e.kind, kind))
	}
	for ot, e := range old.enc {
		if e.kind == kind && ot != t {
			panic(fmt.Sprintf("wire: kind %d already taken by %v (register %v)", kind, ot, t))
		}
	}
	next := &registryState{enc: make(map[reflect.Type]encEntry, len(old.enc)+1), dec: old.dec}
	for k, v := range old.enc {
		next.enc[k] = v
	}
	next.enc[t] = encEntry{kind: kind, fn: enc}
	next.dec[kind] = dec
	reg.Store(next)
}

// Registered reports whether msg's concrete type has a codec, i.e. whether
// AppendEnvelope can carry it.
func Registered(msg any) bool {
	_, ok := loadRegistry().enc[reflect.TypeOf(msg)]
	return ok
}

// Reader is a sticky-error cursor over one payload. All accessors return
// zero values once an error is latched, so codecs chain reads without
// per-field error checks and inspect Err once at the end. Bytes and
// String alias the underlying buffer — see DecodeEnvelope's ownership
// rule.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail latches err (first one wins). Codecs use it to reject semantic
// errors (bad enum values, absurd counts) through the same path as
// truncation.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d", what, r.off)
	}
}

// Finish is how a message decoder ends: the first decoding error, or an
// error if the payload holds bytes the decoder did not consume.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if n := len(r.b) - r.off; n != 0 {
		return fmt.Errorf("wire: %d stray bytes after message", n)
	}
	return nil
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("byte")
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

// Bool reads one byte as a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads one varint-encoded unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// U64 reads a fixed-width 8-byte little-endian integer.
func (r *Reader) U64() uint64 {
	if r.err != nil || len(r.b)-r.off < 8 {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Bytes reads a length-prefixed byte slice ALIASING the underlying
// buffer (no copy). Zero length decodes as nil.
func (r *Reader) Bytes() []byte {
	l := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if l > uint64(len(r.b)-r.off) {
		r.fail("bytes")
		return nil
	}
	if l == 0 {
		return nil
	}
	b := r.b[r.off : r.off+int(l) : r.off+int(l)]
	r.off += int(l)
	return b
}

// String reads a length-prefixed string ALIASING the underlying buffer.
func (r *Reader) String() string {
	b := r.Bytes()
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Count reads a uvarint element count and validates it against the
// remaining payload (each element costs at least min bytes), bounding
// allocation on corrupt or adversarial input.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64((len(r.b)-r.off)/min) {
		r.Fail(fmt.Errorf("wire: count %d exceeds remaining payload", n))
		return 0
	}
	return int(n)
}

// Rest returns every unread byte and advances to the end.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.b[r.off:]
	r.off = len(r.b)
	return b
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// UvarintLen is how many bytes binary.AppendUvarint writes for v.
func UvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// BytesLen is how many bytes AppendBytes or AppendString writes for n bytes:
// the length prefix and the bytes.
func BytesLen(n int) int { return UvarintLen(uint64(n)) + n }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendStrings appends a key list: a uvarint count, then each string
// length-prefixed.
func AppendStrings[S ~string](dst []byte, ss []S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, string(s))
	}
	return dst
}

// ReadStrings reads a list AppendStrings wrote into s, reusing its
// capacity (an empty list leaves a nil s nil). The strings ALIAS the
// underlying buffer.
func ReadStrings[S ~string](r *Reader, s []S) []S {
	s = Resize(s, r.Count(1))
	for i := range s {
		s[i] = S(r.String())
	}
	return s
}

// Resize returns s holding n elements, reusing its capacity when it can (a
// nil s stays nil for n == 0): how a decoder sizes the slices of a reused
// message.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AppendBool appends a boolean as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}
