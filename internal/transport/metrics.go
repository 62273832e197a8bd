package transport

import (
	"time"

	"alohadb/internal/metrics"
)

// Metric family names exported by both network implementations.
const (
	// FamMsgsSent counts outbound messages (requests, one-ways, responses).
	FamMsgsSent = "aloha_transport_msgs_sent_total"
	// FamMsgsReceived counts inbound messages handled.
	FamMsgsReceived = "aloha_transport_msgs_received_total"
	// FamBytesSent counts encoded bytes written to peers (TCP only; the
	// in-memory mesh passes references and reports 0).
	FamBytesSent = "aloha_transport_bytes_sent_total"
	// FamBytesReceived counts encoded bytes read from peers (TCP only).
	FamBytesReceived = "aloha_transport_bytes_received_total"
	// FamCallLatency is the request/response round-trip distribution.
	FamCallLatency = "aloha_transport_call_seconds"
	// FamSocketWrites counts Write calls issued to peer sockets (TCP only).
	// With write coalescing, many envelopes share one socket write; the
	// ratio msgs_sent/socket_writes is the coalescing factor.
	FamSocketWrites = "aloha_transport_socket_writes_total"
	// FamSendQueueDepth is the per-peer send-queue depth observed at each
	// enqueue (TCP only).
	FamSendQueueDepth = "aloha_transport_send_queue_depth"
	// FamEnvelopesPerFlush is the number of envelopes coalesced into each
	// buffered flush (TCP only).
	FamEnvelopesPerFlush = "aloha_transport_envelopes_per_flush"
	// FamFlushBytes is the encoded size of each buffered flush (TCP only).
	FamFlushBytes = "aloha_transport_flush_bytes"
	// FamCodecEncodeSeconds is the wire codec's per-envelope encode
	// latency, subsampled 1-in-64 so the clock reads stay off the
	// saturated hot path (TCP only).
	FamCodecEncodeSeconds = "aloha_codec_encode_seconds"
	// FamCodecDecodeSeconds is the per-envelope decode latency of the
	// wire codec, subsampled 1-in-64 (TCP only).
	FamCodecDecodeSeconds = "aloha_codec_decode_seconds"
	// FamCodecFrameBytes counts bytes produced by the binary codec's
	// encoder (frame headers + payloads, before socket buffering).
	FamCodecFrameBytes = "aloha_codec_frame_bytes_total"
)

// Metrics instruments one network: message and byte counters plus the
// Call round-trip histogram. One Metrics is shared by every node of the
// mesh; all record paths are atomic and allocation-free, keeping the
// zero-latency in-memory fast path (a plain function call) intact.
type Metrics struct {
	msgsSent        metrics.Counter
	msgsRecv        metrics.Counter
	bytesSent       metrics.Counter
	bytesRecv       metrics.Counter
	socketWrites    metrics.Counter
	codecFrameBytes metrics.Counter
	callHist        *metrics.Histogram
	queueDepth      *metrics.Histogram
	perFlush        *metrics.Histogram
	flushBytes      *metrics.Histogram
	codecEncHist    *metrics.Histogram
	codecDecHist    *metrics.Histogram
}

// NewMetrics returns an empty instrument set.
func NewMetrics() *Metrics {
	return &Metrics{
		callHist:     metrics.NewHistogram(metrics.LatencyBounds()),
		queueDepth:   metrics.NewHistogram(metrics.CountBounds()),
		perFlush:     metrics.NewHistogram(metrics.CountBounds()),
		flushBytes:   metrics.NewHistogram(metrics.CountBounds()),
		codecEncHist: metrics.NewHistogram(metrics.LatencyBounds()),
		codecDecHist: metrics.NewHistogram(metrics.LatencyBounds()),
	}
}

func (m *Metrics) recordSend()             { m.msgsSent.Inc() }
func (m *Metrics) recordSendN(n int)       { m.msgsSent.Add(uint64(n)) }
func (m *Metrics) recordRecv()             { m.msgsRecv.Inc() }
func (m *Metrics) recordEnqueue(depth int) { m.queueDepth.Observe(int64(depth)) }
func (m *Metrics) recordFlush(envelopes int, bytes int64) {
	m.perFlush.Observe(int64(envelopes))
	m.flushBytes.Observe(bytes)
}
func (m *Metrics) recordCall(d time.Duration) {
	m.callHist.ObserveDuration(d)
}

// MsgsSent returns the number of messages sent into the mesh so far.
// Benchmarks use the accessors to compute per-operation message and
// syscall costs without parsing the rendered families.
func (m *Metrics) MsgsSent() uint64 { return m.msgsSent.Value() }

// SocketWrites returns the number of Write calls issued to peer sockets
// (0 on the in-memory mesh).
func (m *Metrics) SocketWrites() uint64 { return m.socketWrites.Value() }

// GobFallbacks is always 0: bench/layers.go reads it, and the next
// benchmark PR deletes it with the wire.gob_fallbacks row.
func (m *Metrics) GobFallbacks() uint64 { return 0 }

// MetricFamilies returns the network's metric snapshot.
func (m *Metrics) MetricFamilies() []metrics.Family {
	counter := func(name, help string, c *metrics.Counter) metrics.Family {
		return metrics.Family{
			Name: name, Help: help, Kind: metrics.KindCounter,
			Series: []metrics.Series{metrics.CounterSeries(c.Value())},
		}
	}
	hist := func(name, help string, unit metrics.Unit, h *metrics.Histogram) metrics.Family {
		return metrics.Family{
			Name: name, Help: help, Kind: metrics.KindHistogram, Unit: unit,
			Series: []metrics.Series{metrics.HistSeries(h.Snapshot())},
		}
	}
	return []metrics.Family{
		counter(FamMsgsSent, "Messages sent into the mesh.", &m.msgsSent),
		counter(FamMsgsReceived, "Messages received and handled.", &m.msgsRecv),
		counter(FamBytesSent, "Encoded bytes written to peers (TCP transport).", &m.bytesSent),
		counter(FamBytesReceived, "Encoded bytes read from peers (TCP transport).", &m.bytesRecv),
		counter(FamSocketWrites, "Write calls issued to peer sockets (TCP transport).", &m.socketWrites),
		hist(FamCallLatency, "Request/response round-trip time through the transport.", metrics.UnitSeconds, m.callHist),
		hist(FamSendQueueDepth, "Per-peer send-queue depth at enqueue (TCP transport).", metrics.UnitNone, m.queueDepth),
		hist(FamEnvelopesPerFlush, "Envelopes coalesced into each buffered flush (TCP transport).", metrics.UnitNone, m.perFlush),
		hist(FamFlushBytes, "Encoded bytes per buffered flush (TCP transport).", metrics.UnitNone, m.flushBytes),
		counter(FamCodecFrameBytes, "Bytes produced by the binary wire codec's encoder.", &m.codecFrameBytes),
		hist(FamCodecEncodeSeconds, "Binary codec per-envelope encode latency (1-in-64 sampled).", metrics.UnitSeconds, m.codecEncHist),
		hist(FamCodecDecodeSeconds, "Binary codec per-envelope decode latency (1-in-64 sampled).", metrics.UnitSeconds, m.codecDecHist),
	}
}

// Instrumented is implemented by networks that expose metrics; the
// cluster and the ops endpoint discover it by assertion so the Network
// interface stays minimal.
type Instrumented interface {
	NetMetrics() *Metrics
}
