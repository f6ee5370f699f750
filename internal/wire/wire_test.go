package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"xseed/api"
)

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, Version); err != nil {
		t.Fatal(err)
	}
	v, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v != Version {
		t.Fatalf("handshake version = %d, want %d", v, Version)
	}
}

func TestHandshakeRejectsWrongMagic(t *testing.T) {
	if _, err := ReadHandshake(strings.NewReader("HTTP")); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := ReadHandshake(strings.NewReader("XT")); err == nil {
		t.Fatal("truncated handshake accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payloads := [][]byte{[]byte("hello"), nil, bytes.Repeat([]byte{0xab}, 100_000)}
	for i, p := range payloads {
		if err := w.WriteFrame(FrameEstimateReq, uint64(i*7+1), p); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, p := range payloads {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameEstimateReq || f.Corr != uint64(i*7+1) || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: type=%v corr=%d len=%d", i, f.Type, f.Corr, len(f.Payload))
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("tail read err = %v, want EOF", err)
	}
	if r.BytesRead() != w.BytesWritten() {
		t.Fatalf("reader consumed %d bytes, writer produced %d", r.BytesRead(), w.BytesWritten())
	}
}

func TestFrameLengthLimit(t *testing.T) {
	// A length prefix over MaxFrame must error before any buffering.
	var buf bytes.Buffer
	buf.WriteByte(byte(FramePing))
	buf.WriteByte(0) // corr
	// uvarint(MaxFrame + 1)
	v := uint64(MaxFrame + 1)
	for v >= 0x80 {
		buf.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	buf.WriteByte(byte(v))
	if _, err := NewReader(&buf).ReadFrame(); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

func TestTruncatedFrameIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(FrameEstimateResp, 3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		r := NewReader(bytes.NewReader(whole[:cut]))
		if _, err := r.ReadFrame(); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", cut, len(whole))
		}
	}
}

func TestEstimateReqRoundTrip(t *testing.T) {
	queries := []string{"/a/b", "//open_auction[bidder]/seller", ""}
	b := AppendEstimateReq(nil, "auction", queries, true)
	name, got, streaming, err := DecodeEstimateReq(b)
	if err != nil {
		t.Fatal(err)
	}
	if name != "auction" || !streaming || len(got) != 3 {
		t.Fatalf("decoded name=%q streaming=%v n=%d", name, streaming, len(got))
	}
	for i := range queries {
		if got[i] != queries[i] {
			t.Fatalf("query %d = %q, want %q", i, got[i], queries[i])
		}
	}
}

func TestEstimateRespRoundTrip(t *testing.T) {
	in := []api.EstimateItem{
		{Query: "/a/b", Estimate: 42.5, Cached: true},
		{Query: "/a//c", Estimate: math.Inf(1)},
		{Query: "/bad[", Error: api.NewParseError("parse error", 5, "[")},
		{Query: "", Estimate: 0},
	}
	b := AppendEstimateResp(nil, in)
	out, err := DecodeEstimateResp(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d items, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Query != b.Query || a.Estimate != b.Estimate || a.Cached != b.Cached {
			t.Fatalf("item %d: %+v -> %+v", i, a, b)
		}
	}
	// The retired item bit 1 (streamed) is ignored when read: set on the
	// first item, after the one-byte item count, it changes nothing.
	retired := bytes.Clone(b)
	retired[1] |= 1 << 1
	if again, err := DecodeEstimateResp(retired); err != nil || !reflect.DeepEqual(again, out) {
		t.Fatalf("item with the retired bit 1 decodes to %+v, %v; want %+v", again, err, out)
	}
	// The parse error survives with its structural detail intact.
	d, ok := out[2].Error.ParseDetail()
	if !ok || d.Offset != 5 || d.Token != "[" {
		t.Fatalf("parse detail did not survive: %+v ok=%v", d, ok)
	}
}

func TestFeedbackRoundTrip(t *testing.T) {
	b := AppendFeedbackReq(nil, "auction", "/a/b", 17.25)
	name, query, actual, err := DecodeFeedbackReq(b)
	if err != nil {
		t.Fatal(err)
	}
	if name != "auction" || query != "/a/b" || actual != 17.25 {
		t.Fatalf("decoded %q %q %v", name, query, actual)
	}

	if ae, err := DecodeFeedbackAck(AppendFeedbackAck(nil, nil)); err != nil || ae != nil {
		t.Fatalf("success ack = %v, %v", ae, err)
	}
	in := api.Errorf(api.CodeNotFound, "no such synopsis")
	ae, err := DecodeFeedbackAck(AppendFeedbackAck(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if ae == nil || ae.Code != api.CodeNotFound || ae.Msg != in.Msg {
		t.Fatalf("error ack = %+v", ae)
	}
}

func TestFeedbackBatchRoundTrip(t *testing.T) {
	items := []api.FeedbackItem{{Query: "/a/b", Actual: 7}, {Query: "//c", Actual: 0.25}}
	name, got, err := DecodeFeedbackBatchReq(AppendFeedbackBatchReq(nil, "auction", items))
	if err != nil {
		t.Fatal(err)
	}
	if name != "auction" || len(got) != 2 || got[0] != items[0] || got[1] != items[1] {
		t.Fatalf("decoded %q %+v", name, got)
	}

	in := []*api.Error{nil, api.NewParseError("boom", 3, "["), nil}
	out, err := DecodeFeedbackBatchAck(AppendFeedbackBatchAck(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != nil || out[2] != nil {
		t.Fatalf("ack round trip: %+v", out)
	}
	if out[1] == nil || out[1].Code != api.CodeParseError || out[1].Msg != in[1].Msg {
		t.Fatalf("error item round trip: %+v", out[1])
	}
}

func TestErrorRoundTrip(t *testing.T) {
	in := &api.Error{Code: api.CodeCanceled, Msg: "context canceled",
		Detail: json.RawMessage(`{"requestId":"abc"}`)}
	out, err := DecodeError(AppendError(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Code != in.Code || out.Msg != in.Msg || string(out.Detail) != string(in.Detail) {
		t.Fatalf("error round trip: %+v -> %+v", in, out)
	}
}

// TestDecodersRejectTruncation walks every prefix of a valid payload
// through its decoder: all must error, none may panic.
func TestDecodersRejectTruncation(t *testing.T) {
	bodies := map[FrameType][]byte{
		FrameEstimateReq: AppendEstimateReq(nil, "s", []string{"/a", "/b"}, false),
		FrameEstimateResp: AppendEstimateResp(nil, []api.EstimateItem{
			{Query: "/a", Estimate: 1},
			{Query: "x", Error: api.Errorf(api.CodeParseError, "bad")},
		}),
		FrameFeedbackReq: AppendFeedbackReq(nil, "s", "/a", 2),
		FrameFeedbackAck: AppendFeedbackAck(nil, api.Errorf(api.CodeInternal, "boom")),
		FrameError:       AppendError(nil, api.Errorf(api.CodeConflict, "taken")),
		FrameFeedbackBatchReq: AppendFeedbackBatchReq(nil, "s",
			[]api.FeedbackItem{{Query: "/a", Actual: 1}, {Query: "/b", Actual: 2}}),
		FrameFeedbackBatchAck: AppendFeedbackBatchAck(nil,
			[]*api.Error{nil, api.Errorf(api.CodeParseError, "bad")}),
	}
	for _, fi := range Frames() {
		body, ok := bodies[fi.Type]
		if !ok {
			continue
		}
		if err := fi.Decode(body); err != nil {
			t.Fatalf("%s: valid body rejected: %v", fi.Name, err)
		}
		for cut := 0; cut < len(body); cut++ {
			if err := fi.Decode(body[:cut]); err == nil {
				t.Errorf("%s: %d/%d-byte truncation decoded cleanly", fi.Name, cut, len(body))
			}
		}
		// Trailing garbage is rejected too.
		if err := fi.Decode(append(append([]byte{}, body...), 0xff)); err == nil {
			t.Errorf("%s: trailing byte decoded cleanly", fi.Name)
		}
	}
}

// TestCountCannotOOM proves a hostile element count cannot drive an
// allocation: a tiny payload claiming 2^40 queries must fail fast.
func TestCountCannotOOM(t *testing.T) {
	var b []byte
	b = appendString(b, "s")
	b = append(b, 0) // flags
	v := uint64(1) << 40
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	b = append(b, byte(v))
	if _, _, _, err := DecodeEstimateReq(b); err == nil {
		t.Fatal("absurd query count accepted")
	}
}

func TestFrameNamesUnique(t *testing.T) {
	seenCode := map[FrameType]bool{}
	seenName := map[string]bool{}
	for _, fi := range Frames() {
		if seenCode[fi.Type] || seenName[fi.Name] {
			t.Fatalf("duplicate frame registration: %+v", fi)
		}
		if fi.Decode == nil {
			t.Fatalf("frame %s has no decoder", fi.Name)
		}
		seenCode[fi.Type], seenName[fi.Name] = true, true
	}
}

func BenchmarkEncodeEstimateReq(b *testing.B) {
	queries := []string{"/site/people/person", "//open_auction[bidder]/seller"}
	buf := GetBuf()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*buf = AppendEstimateReq((*buf)[:0], "auction", queries, false)
	}
	PutBuf(buf)
}

func BenchmarkDecodeEstimateResp(b *testing.B) {
	body := AppendEstimateResp(nil, []api.EstimateItem{{Query: "/a/b", Estimate: 42}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEstimateResp(body); err != nil {
			b.Fatal(err)
		}
	}
}
