// Package wire implements xtp, the xseed transport protocol: a
// length-prefixed binary framing over TCP that carries the same request,
// response, and error types as the HTTP JSON API (xseed/api), at a
// per-call cost of microseconds instead of an HTTP round trip's parsing
// and allocation.
//
// The normative specification — handshake, frame layout, per-frame body
// encodings, error semantics, and versioning rules — is docs/PROTOCOL.md;
// a sync test asserts that every frame type named there has a decoder
// registered in Frames, so the document and this package cannot drift.
//
// # Stream shape
//
// A connection opens with a fixed 4-byte handshake in each direction
// ("XTP" + version byte, client first), then becomes a sequence of frames
// in both directions:
//
//	frame := type(1 byte) corrID(uvarint) length(uvarint) payload(length bytes)
//
// Responses are matched to requests by correlation ID, so many requests
// can be in flight on one connection at once (pipelining); server-initiated
// frames use correlation ID 0. Frame payloads use uvarint length-prefixed
// strings, fixed 8-byte little-endian float64s, and raw byte blobs — no
// reflection, no intermediate buffers beyond one pooled scratch per
// encode.
//
// # Safety
//
// Decoding never panics and never allocates proportionally to a length
// prefix before checking it against the bytes actually present: a
// malformed or truncated frame is an error, not an OOM. Reader enforces
// MaxFrame on the wire before buffering a payload.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Handshake and framing constants. Version is the protocol revision this
// package speaks; see docs/PROTOCOL.md for the compatibility rules.
const (
	// Version is the current xtp protocol version, exchanged in the
	// handshake. There is exactly one: version 1.
	Version byte = 1

	// MaxFrame bounds one frame's payload on the wire. A length prefix
	// above it is a protocol error — the peer is misbehaving or the stream
	// lost sync — and must close the connection.
	MaxFrame = 16 << 20

	// handshakeLen is the fixed byte length of the handshake each peer
	// sends: "XTP" plus one version byte.
	handshakeLen = 4
)

// magic is the 3-byte protocol tag opening every handshake.
var magic = [3]byte{'X', 'T', 'P'}

// FrameType identifies a frame's body encoding and direction.
type FrameType byte

// Frame types of protocol version 1. Codes are part of the wire contract
// and never reused; new types append.
const (
	// FrameEstimateReq (client→server) asks for a batch of cardinality
	// estimates against one synopsis.
	FrameEstimateReq FrameType = 0x01
	// FrameEstimateResp (server→client) answers an EstimateReq with one
	// item per query in request order (partial success per query).
	FrameEstimateResp FrameType = 0x02
	// FrameFeedbackReq (client→server) records an executed query's actual
	// cardinality (fire-and-forget on the client; acked individually).
	FrameFeedbackReq FrameType = 0x03
	// FrameFeedbackAck (server→client) acknowledges one FeedbackReq,
	// carrying its typed error when the feedback failed.
	FrameFeedbackAck FrameType = 0x04
	// FrameStatsReq (client→server) asks for server-wide stats.
	FrameStatsReq FrameType = 0x05
	// FrameStatsResp (server→client) carries the JSON encoding of
	// api.Stats (stats is a cold path; its deeply nested payload is not
	// worth a hand-rolled encoding).
	FrameStatsResp FrameType = 0x06
	// FrameError (server→client) fails one request wholesale with a typed
	// api.Error (unknown synopsis, canceled context, undecodable body).
	FrameError FrameType = 0x07
	// FramePing (client→server) is a liveness probe.
	FramePing FrameType = 0x08
	// FramePong (server→client) answers a Ping with the same correlation ID.
	FramePong FrameType = 0x09
	// FrameGoaway (server→client, correlation ID 0) announces a graceful
	// shutdown: in-flight responses still arrive, new requests should go
	// to a fresh connection.
	FrameGoaway FrameType = 0x0A
	// FrameAuthReq (client→server) presents a bearer token, binding the
	// connection to the token's tenant for every later frame. Appended per
	// the §6 evolution rules: an old server treats it as an unknown frame
	// type and closes, which an authenticating client must surface as a
	// dial failure.
	FrameAuthReq FrameType = 0x0B
	// FrameAuthResp (server→client) confirms an AuthReq, carrying the
	// resolved tenant ID. A rejected token gets FrameError (code
	// "unauthorized") and the connection closes.
	FrameAuthResp FrameType = 0x0C
	// FrameReplHello (client→server) opens a replication stream on a node's
	// repl listener, naming the sending node. Replication frames ride the
	// same xtp framing as the client protocol but on a separate,
	// cluster-internal listener.
	FrameReplHello FrameType = 0x0D
	// FrameReplWelcome (server→client) accepts a ReplHello, naming the
	// receiving node.
	FrameReplWelcome FrameType = 0x0E
	// FrameBaseShip (client→server) ships one synopsis's full base snapshot
	// (verbatim file bytes) plus its manifest metadata, starting a fresh
	// replicated generation on the standby.
	FrameBaseShip FrameType = 0x0F
	// FrameSegmentData (client→server) appends a validated run of delta-log
	// records (verbatim log bytes) at a stated (generation, offset) on the
	// standby's copy.
	FrameSegmentData FrameType = 0x10
	// FrameSegmentAck (server→client) acknowledges a BaseShip or
	// SegmentData, reporting the standby's durable position — or asks the
	// sender to restart from a base ship when generations diverged.
	FrameSegmentAck FrameType = 0x11
	// FrameRingReq (client→server) asks for the node's current view of the
	// cluster partition ring.
	FrameRingReq FrameType = 0x12
	// FrameRingResp (server→client) answers a RingReq with the JSON
	// encoding of api.Ring (a cold control-plane path; JSON keeps it
	// identical to GET /v1/cluster/ring).
	FrameRingResp FrameType = 0x13
	// FrameReplDelete (client→server) propagates a synopsis deletion to the
	// standby.
	FrameReplDelete FrameType = 0x14
	// FrameFeedbackBatchReq (client→server) records a batch of executed
	// queries' actual cardinalities in one frame. Appended per the §6
	// evolution rules (new code, never reused; old servers close on it).
	FrameFeedbackBatchReq FrameType = 0x15
	// FrameFeedbackBatchAck (server→client) answers a FeedbackBatchReq with
	// one positional outcome per item (partial success, like EstimateResp).
	FrameFeedbackBatchAck FrameType = 0x16
)

// String names the frame type for logs and metrics.
func (t FrameType) String() string {
	for _, fi := range Frames() {
		if fi.Type == t {
			return fi.Name
		}
	}
	return fmt.Sprintf("unknown(0x%02x)", byte(t))
}

// FrameInfo describes one frame type of the protocol: its code, spec name,
// direction, and a payload validator. Decode parses (and discards) a
// payload of this type, returning an error for a malformed body — it backs
// FuzzXTPDecode and the docs/PROTOCOL.md sync test, and is the proof that
// every specified frame has a decoder.
type FrameInfo struct {
	Type   FrameType
	Name   string // spec name, as written in docs/PROTOCOL.md
	Dir    string // "C→S" or "S→C"
	Decode func(payload []byte) error
}

// Frames is the authoritative registry of protocol-v1 frame types. The
// docs/PROTOCOL.md frame table is sync-tested against it.
func Frames() []FrameInfo {
	return []FrameInfo{
		{FrameEstimateReq, "EstimateReq", "C→S", func(p []byte) error {
			_, _, _, err := DecodeEstimateReq(p)
			return err
		}},
		{FrameEstimateResp, "EstimateResp", "S→C", func(p []byte) error {
			_, err := DecodeEstimateResp(p)
			return err
		}},
		{FrameFeedbackReq, "FeedbackReq", "C→S", func(p []byte) error {
			_, _, _, err := DecodeFeedbackReq(p)
			return err
		}},
		{FrameFeedbackAck, "FeedbackAck", "S→C", func(p []byte) error {
			_, err := DecodeFeedbackAck(p)
			return err
		}},
		{FrameStatsReq, "StatsReq", "C→S", DecodeEmpty},
		{FrameStatsResp, "StatsResp", "S→C", func(p []byte) error {
			if !json.Valid(p) {
				return fmt.Errorf("wire: StatsResp payload is not valid JSON")
			}
			return nil
		}},
		{FrameError, "Error", "S→C", func(p []byte) error {
			_, err := DecodeError(p)
			return err
		}},
		{FramePing, "Ping", "C→S", DecodeEmpty},
		{FramePong, "Pong", "S→C", DecodeEmpty},
		{FrameGoaway, "Goaway", "S→C", DecodeEmpty},
		{FrameAuthReq, "AuthReq", "C→S", func(p []byte) error {
			_, err := DecodeAuthReq(p)
			return err
		}},
		{FrameAuthResp, "AuthResp", "S→C", func(p []byte) error {
			_, err := DecodeAuthResp(p)
			return err
		}},
		{FrameReplHello, "ReplHello", "C→S", func(p []byte) error {
			_, err := DecodeReplHello(p)
			return err
		}},
		{FrameReplWelcome, "ReplWelcome", "S→C", func(p []byte) error {
			_, err := DecodeReplWelcome(p)
			return err
		}},
		{FrameBaseShip, "BaseShip", "C→S", func(p []byte) error {
			_, err := DecodeBaseShip(p)
			return err
		}},
		{FrameSegmentData, "SegmentData", "C→S", func(p []byte) error {
			_, err := DecodeSegmentData(p)
			return err
		}},
		{FrameSegmentAck, "SegmentAck", "S→C", func(p []byte) error {
			_, err := DecodeSegmentAck(p)
			return err
		}},
		{FrameRingReq, "RingReq", "C→S", DecodeEmpty},
		{FrameRingResp, "RingResp", "S→C", func(p []byte) error {
			if !json.Valid(p) {
				return fmt.Errorf("wire: RingResp payload is not valid JSON")
			}
			return nil
		}},
		{FrameReplDelete, "ReplDelete", "C→S", func(p []byte) error {
			_, err := DecodeReplDelete(p)
			return err
		}},
		{FrameFeedbackBatchReq, "FeedbackBatchReq", "C→S", func(p []byte) error {
			_, _, err := DecodeFeedbackBatchReq(p)
			return err
		}},
		{FrameFeedbackBatchAck, "FeedbackBatchAck", "S→C", func(p []byte) error {
			_, err := DecodeFeedbackBatchAck(p)
			return err
		}},
	}
}

// DecodeEmpty validates the bodyless frames (Ping, Pong, Goaway, StatsReq,
// RingReq): a payload on one is a protocol error.
func DecodeEmpty(p []byte) error {
	if len(p) != 0 {
		return fmt.Errorf("wire: unexpected %d-byte payload on a bodyless frame", len(p))
	}
	return nil
}

// ErrBadHandshake rejects a connection whose first bytes are not an xtp
// handshake; wrapped errors carry the specifics.
var ErrBadHandshake = errors.New("wire: bad handshake")

// ErrVersionMismatch reports a peer speaking an xtp version this package
// does not: the handshake carries the peer's version so the caller can log
// it.
var ErrVersionMismatch = errors.New("wire: protocol version mismatch")

// WriteHandshake sends this side's 4-byte handshake.
func WriteHandshake(w io.Writer, version byte) error {
	_, err := w.Write([]byte{magic[0], magic[1], magic[2], version})
	return err
}

// ReadHandshake reads and validates the peer's handshake, returning the
// version it announced. A wrong magic is ErrBadHandshake; the caller
// decides whether the announced version is acceptable.
func ReadHandshake(r io.Reader) (byte, error) {
	var b [handshakeLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadHandshake, err)
	}
	if b[0] != magic[0] || b[1] != magic[1] || b[2] != magic[2] {
		return 0, fmt.Errorf("%w: magic %q", ErrBadHandshake, b[:3])
	}
	return b[3], nil
}

// Frame is one decoded frame. Payload aliases the Reader's internal buffer
// and is valid only until the next ReadFrame; callers that dispatch
// asynchronously must decode (or copy) first.
type Frame struct {
	Type    FrameType
	Corr    uint64
	Payload []byte
}

// Reader decodes frames from a stream. It is not safe for concurrent use;
// a connection has exactly one reading goroutine.
type Reader struct {
	br  *bufio.Reader
	buf []byte // payload scratch, grown on demand, reused across frames
	n   int64  // bytes consumed off the wire (header + payload)
}

// NewReader wraps r for frame decoding.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32<<10)}
}

// BytesRead reports the total wire bytes consumed so far (for metrics).
func (r *Reader) BytesRead() int64 { return r.n }

// ReadFrame reads the next frame. Frame.Payload is only valid until the
// next call. Errors are terminal for the stream: a malformed header or an
// oversized length prefix means framing sync is lost and the connection
// must close.
func (r *Reader) ReadFrame() (Frame, error) {
	t, err := r.br.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	r.n++
	corr, err := r.readUvarint()
	if err != nil {
		return Frame{}, fmt.Errorf("wire: read correlation id: %w", noEOF(err))
	}
	length, err := r.readUvarint()
	if err != nil {
		return Frame{}, fmt.Errorf("wire: read frame length: %w", noEOF(err))
	}
	if length > MaxFrame {
		return Frame{}, fmt.Errorf("wire: frame length %d exceeds limit %d", length, MaxFrame)
	}
	if uint64(cap(r.buf)) < length {
		r.buf = make([]byte, length)
	}
	payload := r.buf[:length]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: read %d-byte payload: %w", length, noEOF(err))
	}
	r.n += int64(length)
	return Frame{Type: FrameType(t), Corr: corr, Payload: payload}, nil
}

// readUvarint decodes one uvarint off the stream, counting its bytes.
func (r *Reader) readUvarint() (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.br.ReadByte()
		if err != nil {
			return 0, err
		}
		r.n++
		if shift == 63 && b > 1 {
			return 0, errors.New("uvarint overflows 64 bits")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
	return 0, errors.New("uvarint longer than 10 bytes")
}

// noEOF upgrades a mid-structure EOF to ErrUnexpectedEOF: a stream ending
// inside a frame is truncation, not a clean close.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Writer encodes frames onto a stream. It is not safe for concurrent use;
// callers serialize writes (one writing goroutine, or a mutex).
type Writer struct {
	bw *bufio.Writer
	n  int64
}

// NewWriter wraps w for frame encoding.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 32<<10)}
}

// BytesWritten reports the total wire bytes produced so far (for metrics).
func (w *Writer) BytesWritten() int64 { return w.n }

// WriteFrame encodes one frame and flushes it to the connection. Flushing
// per frame keeps latency flat for pipelined callers: a response is on the
// wire the moment its handler finishes, never parked behind an idle buffer.
func (w *Writer) WriteFrame(t FrameType, corr uint64, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	hdr[0] = byte(t)
	n := 1 + binary.PutUvarint(hdr[1:], corr)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	if _, err := w.bw.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.n += int64(n + len(payload))
	return nil
}

// bufPool recycles payload scratch buffers across encodes, so steady-state
// request framing allocates nothing.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf borrows an empty scratch buffer for encoding a payload.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a scratch buffer to the pool.
func PutBuf(b *[]byte) { bufPool.Put(b) }
