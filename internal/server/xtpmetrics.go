package server

import (
	"time"

	"xseed/internal/obs"
	"xseed/internal/wire"
)

// xtpMetrics is the XTP listener's metric families (xseed_xtp_*). Frame
// counters are resolved once per frame type at construction into arrays
// indexed by the type byte, so the per-frame cost on the transport hot
// path is an array load plus a wait-free increment — the same discipline
// the HTTP middleware uses for its per-route children.
type xtpMetrics struct {
	connsOpen  *obs.Gauge
	connsTotal *obs.Counter

	framesIn  [256]*obs.Counter // {dir="in", type}, indexed by the type byte
	framesOut [256]*obs.Counter // {dir="out", type}
	bytesIn   *obs.Counter
	bytesOut  *obs.Counter

	estimateSeconds *obs.Histogram
	feedbackSeconds *obs.Histogram
	statsSeconds    *obs.Histogram

	errors       *obs.CounterVec // {code}: error frames + error acks by taxonomy code
	decodeErrors *obs.Counter
	handshakeErr *obs.Counter
}

func newXTPMetrics(om *obs.Registry) *xtpMetrics {
	if om == nil {
		om = obs.Disabled
	}
	frames := om.CounterVec("xseed_xtp_frames_total",
		"XTP frames by direction and frame type.", "dir", "type")
	bytes := om.CounterVec("xseed_xtp_bytes_total",
		"XTP wire bytes by direction (frame headers + payloads).", "dir")
	seconds := om.HistogramVec("xseed_xtp_request_seconds",
		"XTP request handling latency by request kind, from frame decode to response write.",
		obs.HistogramOpts{Scale: 1e9}, "kind")
	m := &xtpMetrics{
		connsOpen: om.Gauge("xseed_xtp_connections",
			"XTP connections currently open (post-handshake)."),
		connsTotal: om.Counter("xseed_xtp_connections_total",
			"XTP connections accepted since start."),
		bytesIn:         bytes.With("in"),
		bytesOut:        bytes.With("out"),
		estimateSeconds: seconds.With("estimate"),
		feedbackSeconds: seconds.With("feedback"),
		statsSeconds:    seconds.With("stats"),
		errors: om.CounterVec("xseed_xtp_errors_total",
			"XTP error frames and error acks sent, by api error code.", "code"),
		decodeErrors: om.Counter("xseed_xtp_decode_errors_total",
			"Connections dropped for malformed frames (framing or payload decode failures)."),
		handshakeErr: om.Counter("xseed_xtp_handshake_failures_total",
			"Connections dropped during the handshake (bad magic, unsupported version, timeout)."),
	}
	for _, fi := range wire.Frames() {
		m.framesIn[fi.Type] = frames.With("in", fi.Name)
		m.framesOut[fi.Type] = frames.With("out", fi.Name)
	}
	unknownIn, unknownOut := frames.With("in", "unknown"), frames.With("out", "unknown")
	for i := range m.framesIn {
		if m.framesIn[i] == nil {
			m.framesIn[i] = unknownIn
		}
		if m.framesOut[i] == nil {
			m.framesOut[i] = unknownOut
		}
	}
	return m
}

// frameIn records one received frame and its wire-byte delta.
func (m *xtpMetrics) frameIn(t wire.FrameType, bytes int64) {
	m.framesIn[t].Inc()
	m.bytesIn.Add(uint64(bytes))
}

// frameOut records one sent frame and its wire-byte delta.
func (m *xtpMetrics) frameOut(t wire.FrameType, bytes int64) {
	m.framesOut[t].Inc()
	m.bytesOut.Add(uint64(bytes))
}

// observe records one request's handling latency on the given kind's
// histogram.
func (m *xtpMetrics) observe(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// errorSent counts an error (frame or ack) by its taxonomy code.
func (m *xtpMetrics) errorSent(code string) {
	m.errors.With(code).Inc()
}
