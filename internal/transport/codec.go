package transport

import (
	"bufio"
	"io"
	"sync"
	"time"

	"alohadb/internal/wire"
)

// Outbound envelopes are pooled: Call/Send take one, the peer's flusher
// returns it after encoding. An envelope that never reaches the queue
// (dead peer) is returned by the caller; one stranded in a dead peer's
// queue is simply dropped to the GC.
var envPool = sync.Pool{New: func() any { return new(envelope) }}

func getEnvelope() *envelope { return envPool.Get().(*envelope) }

func putEnvelope(e *envelope) {
	*e = envelope{}
	envPool.Put(e)
}

// codecSampleMask subsamples the encode/decode latency clock reads: one
// observation per 64 messages keeps the histograms honest without paying
// two time.Now calls on every message of a saturated link.
const codecSampleMask = 63

// frameEncoder encodes envelopes with the wire codec straight into one
// reusable coalescing buffer, flushed with a single socket write. The
// stream preamble rides ahead of the first frame in the same write.
type frameEncoder struct {
	w     io.Writer
	m     *Metrics
	buf   []byte
	limit int
	n     uint64
}

func newFrameEncoder(w io.Writer, m *Metrics, limit int) *frameEncoder {
	b := &frameEncoder{w: w, m: m, limit: limit}
	b.buf = append(make([]byte, 0, limit+4096), wire.Preamble[:]...)
	return b
}

func (b *frameEncoder) encode(e *envelope) error {
	before := len(b.buf)
	var err error
	if b.n&codecSampleMask == 0 {
		start := time.Now()
		b.buf, _, err = wire.AppendEnvelope(b.buf, e)
		b.m.codecEncHist.ObserveDuration(time.Since(start))
	} else {
		b.buf, _, err = wire.AppendEnvelope(b.buf, e)
	}
	b.n++
	if err != nil {
		return err
	}
	b.m.codecFrameBytes.Add(uint64(len(b.buf) - before))
	return nil
}

func (b *frameEncoder) buffered() int { return len(b.buf) }

func (b *frameEncoder) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.w.Write(b.buf)
	if cap(b.buf) > 4*(b.limit+4096) {
		// One oversized install ballooned the buffer; shed it.
		b.buf = make([]byte, 0, b.limit+4096)
	} else {
		b.buf = b.buf[:0]
	}
	return err
}

// frameDecoder reads one inbound stream, a frame per decode, into an
// envelope the caller reuses for the connection's lifetime (dispatch
// copies it by value; decode sets every field).
type frameDecoder struct {
	br *bufio.Reader
	m  *Metrics
	n  uint64
}

// newFrameDecoder consumes and validates the stream preamble. What arrives
// on a socket is outside input: a stream that opens with anything else is
// refused, and the caller closes the connection.
func newFrameDecoder(r io.Reader, m *Metrics, size int) (*frameDecoder, error) {
	br := bufio.NewReaderSize(countingReader{r: r, m: m}, size)
	var pre [len(wire.Preamble)]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, err
	}
	if err := wire.CheckPreamble(pre[:]); err != nil {
		return nil, err
	}
	return &frameDecoder{br: br, m: m}, nil
}

func (b *frameDecoder) decode(env *envelope) error {
	var lenbuf [wire.FrameLenSize]byte
	if _, err := io.ReadFull(b.br, lenbuf[:]); err != nil {
		return err
	}
	l, err := wire.GetFrameLen(lenbuf[:])
	if err != nil {
		return err
	}
	// Owned exact-size buffer per frame: the decoded message's keys,
	// values, and strings alias it, so it is never pooled — the message
	// controls its lifetime and the GC frees both together.
	buf := make([]byte, l)
	if _, err := io.ReadFull(b.br, buf); err != nil {
		return err
	}
	if b.n&codecSampleMask == 0 {
		start := time.Now()
		*env, err = wire.DecodeEnvelope(buf)
		b.m.codecDecHist.ObserveDuration(time.Since(start))
	} else {
		*env, err = wire.DecodeEnvelope(buf)
	}
	b.n++
	return err
}
