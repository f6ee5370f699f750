package wire

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"xseed/api"
)

// FuzzXTPDecode throws arbitrary bytes at the frame reader and every
// registered payload decoder. The invariants: no panic, no allocation
// driven by an unchecked length prefix (a malformed length must error, not
// OOM), and truncated frames always error. The input and every frame
// payload in it are also EstimateReq payloads for checkEstimateReq. CI
// runs this with a 30-second budget in the quick lane.
func FuzzXTPDecode(f *testing.F) {
	// Seed with well-formed traffic so mutation explores the format's
	// neighborhood, not just random noise.
	var seed bytes.Buffer
	w := NewWriter(&seed)
	w.WriteFrame(FrameEstimateReq, 1,
		AppendEstimateReq(nil, "auction", []string{"/a/b", "//c[d]"}, true))
	w.WriteFrame(FrameEstimateResp, 1, AppendEstimateResp(nil, []api.EstimateItem{
		{Query: "/a/b", Estimate: 42, Cached: true},
		{Query: "bad[", Error: api.NewParseError("boom", 3, "[")},
	}))
	w.WriteFrame(FrameFeedbackReq, 2, AppendFeedbackReq(nil, "auction", "/a/b", 7))
	w.WriteFrame(FrameFeedbackAck, 2, AppendFeedbackAck(nil, nil))
	w.WriteFrame(FrameError, 3, AppendError(nil, api.Errorf(api.CodeNotFound, "nope")))
	w.WriteFrame(FrameStatsResp, 4, []byte(`{"synopses":[]}`))
	w.WriteFrame(FramePing, 5, nil)
	w.WriteFrame(FrameAuthReq, 6, AppendAuthReq(nil, "s3cret-token"))
	w.WriteFrame(FrameAuthResp, 6, AppendAuthResp(nil, "acme"))
	w.WriteFrame(FrameReplHello, 0, AppendReplHello(nil, "node-a"))
	w.WriteFrame(FrameReplWelcome, 0, AppendReplWelcome(nil, "node-b"))
	w.WriteFrame(FrameBaseShip, 7, AppendBaseShip(nil, BaseShip{
		Key: "acme\x00orders", Seq: 3, Ver: 12, Budget: -1, Created: 1700000000000000000,
		Source: "snapshot", Snapshot: []byte("XSYNbytes"),
	}))
	w.WriteFrame(FrameSegmentData, 8, AppendSegmentData(nil, SegmentData{
		Key: "orders", Seq: 3, Off: 4096, Data: []byte{0xde, 0xad, 0xbe, 0xef},
	}))
	w.WriteFrame(FrameSegmentAck, 8, AppendSegmentAck(nil, SegmentAck{
		Key: "orders", Seq: 3, Off: 4100, OK: true,
	}))
	w.WriteFrame(FrameRingReq, 9, nil)
	w.WriteFrame(FrameRingResp, 9, []byte(`{"epoch":1,"replicas":1,"nodes":[]}`))
	w.WriteFrame(FrameReplDelete, 10, AppendReplDelete(nil, "orders"))
	w.WriteFrame(FrameFeedbackBatchReq, 11, AppendFeedbackBatchReq(nil, "auction", []api.FeedbackItem{
		{Query: "/a/b", Actual: 7},
		{Query: "//c[d]", Actual: 0.5},
	}))
	w.WriteFrame(FrameFeedbackBatchAck, 11, AppendFeedbackBatchAck(nil, []*api.Error{
		nil,
		api.NewParseError("boom", 3, "["),
	}))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})

	decoders := map[FrameType]func([]byte) error{}
	for _, fi := range Frames() {
		decoders[fi.Type] = fi.Decode
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkEstimateReq(t, data)
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bound work per input
			fr, err := r.ReadFrame()
			if err != nil {
				return // any error is a valid outcome; panics are not
			}
			if len(fr.Payload) > MaxFrame {
				t.Fatalf("reader produced %d-byte payload above MaxFrame", len(fr.Payload))
			}
			if dec, ok := decoders[fr.Type]; ok {
				dec(fr.Payload) // must not panic; errors are fine
			}
			checkEstimateReq(t, fr.Payload)
		}
	})
}

// checkEstimateReq holds DecodeEstimateReq to two properties on any
// payload it accepts: what it returns does not change when the payload's
// bytes do afterwards, as the reader's buffer does under the next frame;
// and re-encoding what it returns decodes to the same request.
func checkEstimateReq(t *testing.T, payload []byte) {
	p := bytes.Clone(payload)
	name, queries, streaming, err := DecodeEstimateReq(p)
	if err != nil {
		return
	}
	wantName, wantQueries := strings.Clone(name), make([]string, len(queries))
	for i, q := range queries {
		wantQueries[i] = strings.Clone(q)
	}
	for i := range p {
		p[i] ^= 0xff
	}
	if name != wantName || !slices.Equal(queries, wantQueries) {
		t.Fatalf("decoded request changed with the payload: %q %q, was %q %q", name, queries, wantName, wantQueries)
	}
	name2, queries2, streaming2, err := DecodeEstimateReq(AppendEstimateReq(nil, name, queries, streaming))
	if err != nil || name2 != name || !slices.Equal(queries2, queries) || streaming2 != streaming {
		t.Fatalf("re-encoded request decodes to %q %q %v, %v; want %q %q %v", name2, queries2, streaming2, err, name, queries, streaming)
	}
}
