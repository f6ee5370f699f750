package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"xseed/api"
)

// Payload codecs: hand-rolled append-style encoders (allocation-free when
// the destination has capacity — pair with GetBuf/PutBuf) and bounds-checked
// decoders for every hot-path frame body. The encodings are specified
// normatively in docs/PROTOCOL.md; the primitives are:
//
//	uvarint  — binary.Uvarint
//	str      — uvarint byte length + UTF-8 bytes
//	blob     — uvarint byte length + raw bytes
//	f64      — 8 bytes, IEEE-754 bits, little-endian
//	flags    — 1 byte, bit meanings per frame
//
// Decoders validate every length prefix against the bytes actually present
// before allocating, so a hostile frame costs at most its own size.

// EstimateReq flags. Bit 0 once selected a second, streaming matcher; it
// is retired: still encoded and decoded, so a peer that sets it stays
// well-formed, but servers ignore it (docs/PROTOCOL.md §4.2).
const estReqStreaming = 1 << 0

// EstimateResp item flags. Bit 1 is retired with the streaming matcher:
// never set, and ignored when read (docs/PROTOCOL.md §4.3).
const (
	estItemCached   = 1 << 0
	estItemHasError = 1 << 2
)

// FeedbackAck flags.
const ackHasError = 1 << 0

// AppendEstimateReq encodes an EstimateBatch request:
//
//	name str | flags(1) | nq uvarint | nq × (query str)
//
// streaming sets the retired flag bit 0, which servers ignore.
func AppendEstimateReq(b []byte, name string, queries []string, streaming bool) []byte {
	b = appendString(b, name)
	var flags byte
	if streaming {
		flags |= estReqStreaming
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(queries)))
	for _, q := range queries {
		b = appendString(b, q)
	}
	return b
}

// DecodeEstimateReq decodes an EstimateReq payload. The name and every
// query are substrings of one copy of p, so a frame costs two allocations
// whatever its query count, and nothing returned aliases p. A caller that
// keeps one query past the request keeps the whole copy alive, so
// long-lived holders (the estimate cache) clone what they keep. streaming
// reports the retired flag bit 0.
func DecodeEstimateReq(p []byte) (name string, queries []string, streaming bool, err error) {
	s := string(p)
	d := dec{b: p}
	name = d.sub(s)
	flags := d.byte()
	n := d.count(1) // a query is at least one length byte
	if d.err != nil {
		return "", nil, false, d.fail("EstimateReq")
	}
	queries = make([]string, n)
	for i := range queries {
		queries[i] = d.sub(s)
	}
	if err := d.finish("EstimateReq"); err != nil {
		return "", nil, false, err
	}
	return name, queries, flags&estReqStreaming != 0, nil
}

// AppendEstimateResp encodes a batch estimate response:
//
//	n uvarint | n × item
//	item := flags(1) | query str | (error fields if hasError, else estimate f64)
func AppendEstimateResp(b []byte, items []api.EstimateItem) []byte {
	b = binary.AppendUvarint(b, uint64(len(items)))
	for i := range items {
		it := &items[i]
		var flags byte
		if it.Cached {
			flags |= estItemCached
		}
		if it.Error != nil {
			flags |= estItemHasError
		}
		b = append(b, flags)
		b = appendString(b, it.Query)
		if it.Error != nil {
			b = appendError(b, it.Error)
		} else {
			b = appendF64(b, it.Estimate)
		}
	}
	return b
}

// DecodeEstimateResp decodes an EstimateResp payload.
func DecodeEstimateResp(p []byte) ([]api.EstimateItem, error) {
	d := dec{b: p}
	n := d.count(2) // an item is at least flags + one length byte
	if d.err != nil {
		return nil, d.fail("EstimateResp")
	}
	items := make([]api.EstimateItem, n)
	for i := range items {
		it := &items[i]
		flags := d.byte()
		it.Cached = flags&estItemCached != 0
		it.Query = d.str()
		if flags&estItemHasError != 0 {
			it.Error = d.apiError()
		} else {
			it.Estimate = d.f64()
		}
	}
	if err := d.finish("EstimateResp"); err != nil {
		return nil, err
	}
	return items, nil
}

// AppendFeedbackReq encodes a feedback record:
//
//	name str | query str | actual f64
func AppendFeedbackReq(b []byte, name, query string, actual float64) []byte {
	b = appendString(b, name)
	b = appendString(b, query)
	return appendF64(b, actual)
}

// DecodeFeedbackReq decodes a FeedbackReq payload.
func DecodeFeedbackReq(p []byte) (name, query string, actual float64, err error) {
	d := dec{b: p}
	name = d.str()
	query = d.str()
	actual = d.f64()
	if err := d.finish("FeedbackReq"); err != nil {
		return "", "", 0, err
	}
	return name, query, actual, nil
}

// AppendFeedbackAck encodes a feedback acknowledgement; e is nil on
// success:
//
//	flags(1) | (error fields if hasError)
func AppendFeedbackAck(b []byte, e *api.Error) []byte {
	if e == nil {
		return append(b, 0)
	}
	b = append(b, ackHasError)
	return appendError(b, e)
}

// DecodeFeedbackAck decodes a FeedbackAck payload; a nil error with nil
// *api.Error is a successful ack.
func DecodeFeedbackAck(p []byte) (*api.Error, error) {
	d := dec{b: p}
	flags := d.byte()
	var ae *api.Error
	if flags&ackHasError != 0 {
		ae = d.apiError()
	}
	if err := d.finish("FeedbackAck"); err != nil {
		return nil, err
	}
	return ae, nil
}

// AppendFeedbackBatchReq encodes a feedback batch:
//
//	name str | n uvarint | n × (query str | actual f64)
func AppendFeedbackBatchReq(b []byte, name string, items []api.FeedbackItem) []byte {
	b = appendString(b, name)
	b = binary.AppendUvarint(b, uint64(len(items)))
	for i := range items {
		b = appendString(b, items[i].Query)
		b = appendF64(b, items[i].Actual)
	}
	return b
}

// DecodeFeedbackBatchReq decodes a FeedbackBatchReq payload.
func DecodeFeedbackBatchReq(p []byte) (name string, items []api.FeedbackItem, err error) {
	d := dec{b: p}
	name = d.str()
	n := d.count(9) // an item is at least one length byte + 8 f64 bytes
	if d.err != nil {
		return "", nil, d.fail("FeedbackBatchReq")
	}
	items = make([]api.FeedbackItem, n)
	for i := range items {
		items[i].Query = d.str()
		items[i].Actual = d.f64()
	}
	if err := d.finish("FeedbackBatchReq"); err != nil {
		return "", nil, err
	}
	return name, items, nil
}

// AppendFeedbackBatchAck encodes a feedback batch acknowledgement: one
// positional outcome per request item, nil = success:
//
//	n uvarint | n × (flags(1) | (error fields if hasError))
func AppendFeedbackBatchAck(b []byte, errs []*api.Error) []byte {
	b = binary.AppendUvarint(b, uint64(len(errs)))
	for _, e := range errs {
		if e == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, ackHasError)
		b = appendError(b, e)
	}
	return b
}

// DecodeFeedbackBatchAck decodes a FeedbackBatchAck payload into one
// *api.Error slot per item (nil = that item succeeded).
func DecodeFeedbackBatchAck(p []byte) ([]*api.Error, error) {
	d := dec{b: p}
	n := d.count(1) // an item is at least its flags byte
	if d.err != nil {
		return nil, d.fail("FeedbackBatchAck")
	}
	errs := make([]*api.Error, n)
	for i := range errs {
		if d.byte()&ackHasError != 0 {
			errs[i] = d.apiError()
		}
	}
	if err := d.finish("FeedbackBatchAck"); err != nil {
		return nil, err
	}
	return errs, nil
}

// AppendAuthReq encodes a bearer-token presentation:
//
//	token str
func AppendAuthReq(b []byte, token string) []byte {
	return appendString(b, token)
}

// DecodeAuthReq decodes an AuthReq payload.
func DecodeAuthReq(p []byte) (token string, err error) {
	d := dec{b: p}
	token = d.str()
	if err := d.finish("AuthReq"); err != nil {
		return "", err
	}
	return token, nil
}

// AppendAuthResp encodes an authentication confirmation:
//
//	tenant str
func AppendAuthResp(b []byte, tenant string) []byte {
	return appendString(b, tenant)
}

// DecodeAuthResp decodes an AuthResp payload, returning the tenant ID the
// connection is now bound to.
func DecodeAuthResp(p []byte) (tenant string, err error) {
	d := dec{b: p}
	tenant = d.str()
	if err := d.finish("AuthResp"); err != nil {
		return "", err
	}
	return tenant, nil
}

// AppendError encodes a whole-request error frame body — the same field
// layout errors embed inside EstimateResp items and FeedbackAcks:
//
//	code str | msg str | detail blob (raw JSON, may be empty)
func AppendError(b []byte, e *api.Error) []byte {
	return appendError(b, e)
}

// DecodeError decodes an Error frame payload. It never returns a nil
// *api.Error with a nil error.
func DecodeError(p []byte) (*api.Error, error) {
	d := dec{b: p}
	ae := d.apiError()
	if err := d.finish("Error"); err != nil {
		return nil, err
	}
	return ae, nil
}

func appendError(b []byte, e *api.Error) []byte {
	b = appendString(b, e.Code)
	b = appendString(b, e.Msg)
	return appendBlob(b, e.Detail)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBlob(b, blob []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// dec is a bounds-checked payload cursor. The first failure latches in err;
// every later read returns zero values, so decode functions can read a
// whole structure and check once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) setErr(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at offset %d", msg, d.off)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.setErr("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.setErr("truncated byte")
		return 0
	}
	b := d.b[d.off]
	d.off++
	return b
}

// count reads an element count and sanity-checks it against the bytes
// remaining: with each element at least minBytes long, a count the payload
// cannot possibly hold is rejected before any make() sized by it.
func (d *dec) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off)/uint64(minBytes) {
		d.setErr(fmt.Sprintf("count %d exceeds payload", v))
		return 0
	}
	return int(v)
}

func (d *dec) str() string {
	return string(d.raw())
}

// sub reads a string field as a substring of s, a copy of the payload.
func (d *dec) sub(s string) string {
	f := d.raw()
	return s[d.off-len(f) : d.off]
}

func (d *dec) blob() []byte {
	raw := d.raw()
	if len(raw) == 0 {
		return nil
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

// raw reads a length-prefixed field, aliasing the payload.
func (d *dec) raw() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.setErr(fmt.Sprintf("field length %d exceeds payload", n))
		return nil
	}
	f := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return f
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.setErr("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *dec) apiError() *api.Error {
	code := d.str()
	msg := d.str()
	detail := d.blob()
	if d.err != nil {
		return nil
	}
	e := &api.Error{Code: code, Msg: msg}
	if len(detail) > 0 {
		e.Detail = json.RawMessage(detail)
	}
	return e
}

// fail wraps the latched error with the frame name.
func (d *dec) fail(frame string) error {
	return fmt.Errorf("wire: decode %s: %w", frame, d.err)
}

// finish asserts the payload was fully and cleanly consumed: trailing
// bytes mean the peer encoded something this version does not understand
// inside a frame it claims to share, which is corruption, not extension
// (new fields get new frame types — see the versioning rules in
// docs/PROTOCOL.md).
func (d *dec) finish(frame string) error {
	if d.err != nil {
		return d.fail(frame)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: decode %s: %d trailing bytes", frame, len(d.b)-d.off)
	}
	return nil
}
