package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/fixtures"
	"xseed/internal/obs"
	"xseed/internal/wire"
)

// startXTP serves the binary protocol on a loopback listener over a
// registry preloaded with the paper's Figure 2 document as "fig2".
func startXTP(t testing.TB, om *obs.Registry) (*Registry, string) {
	t.Helper()
	reg := NewRegistry(1024, 0)
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	x := NewXTP(reg, XTPOptions{Metrics: om})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- x.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := x.Shutdown(ctx); err != nil {
			t.Errorf("xtp shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("xtp serve: %v", err)
		}
		reg.Close()
	})
	return reg, ln.Addr().String()
}

// dialRaw opens a handshaked raw-frame connection — tests drive the wire
// protocol directly, below the client SDK.
func dialRaw(t testing.TB, addr string) (net.Conn, *wire.Reader, *wire.Writer) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteHandshake(c, wire.Version); err != nil {
		t.Fatal(err)
	}
	ver, err := wire.ReadHandshake(c)
	if err != nil {
		t.Fatal(err)
	}
	if ver != wire.Version {
		t.Fatalf("server version = %d, want %d", ver, wire.Version)
	}
	return c, wire.NewReader(c), wire.NewWriter(c)
}

func TestXTPEstimatePartialSuccess(t *testing.T) {
	_, addr := startXTP(t, nil)
	_, r, w := dialRaw(t, addr)

	// One good query, one with a syntax error at a known offset: the
	// response must carry a per-item split, not fail the batch.
	req := wire.AppendEstimateReq(nil, "fig2", []string{"/a/c/s", "//s[@"}, false)
	if err := w.WriteFrame(wire.FrameEstimateReq, 42, req); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameEstimateResp || f.Corr != 42 {
		t.Fatalf("frame = %s corr %d, want EstimateResp corr 42", f.Type, f.Corr)
	}
	items, err := wire.DecodeEstimateResp(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %d, want 2", len(items))
	}
	if items[0].Error != nil || items[0].Estimate <= 0 {
		t.Fatalf("good item = %+v", items[0])
	}
	if items[1].Error == nil || items[1].Error.Code != api.CodeParseError {
		t.Fatalf("bad item error = %+v", items[1].Error)
	}
	if d, ok := items[1].Error.ParseDetail(); !ok || d.Offset <= 0 {
		t.Fatalf("parse detail = %+v, ok=%v", d, ok)
	}
}

func TestXTPUnknownSynopsisError(t *testing.T) {
	_, addr := startXTP(t, nil)
	_, r, w := dialRaw(t, addr)

	req := wire.AppendEstimateReq(nil, "nope", []string{"/a"}, false)
	if err := w.WriteFrame(wire.FrameEstimateReq, 7, req); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError || f.Corr != 7 {
		t.Fatalf("frame = %s corr %d, want Error corr 7", f.Type, f.Corr)
	}
	ae, err := wire.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ae.Code != api.CodeNotFound {
		t.Fatalf("code = %q, want %q", ae.Code, api.CodeNotFound)
	}
}

func TestXTPFeedbackAck(t *testing.T) {
	reg, addr := startXTP(t, nil)
	_, r, w := dialRaw(t, addr)

	ok := wire.AppendFeedbackReq(nil, "fig2", "/a/c/s", 3)
	if err := w.WriteFrame(wire.FrameFeedbackReq, 1, ok); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameFeedbackAck || f.Corr != 1 {
		t.Fatalf("frame = %s corr %d", f.Type, f.Corr)
	}
	if ae, err := wire.DecodeFeedbackAck(f.Payload); err != nil || ae != nil {
		t.Fatalf("ack = %+v, %v, want clean", ae, err)
	}
	if st := reg.Stats(); len(st.Synopses) != 1 || st.Synopses[0].Feedbacks != 1 {
		t.Fatalf("stats after feedback = %+v", st)
	}

	bad := wire.AppendFeedbackReq(nil, "nope", "/a", 3)
	if err := w.WriteFrame(wire.FrameFeedbackReq, 2, bad); err != nil {
		t.Fatal(err)
	}
	if f, err = r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	ae, err := wire.DecodeFeedbackAck(f.Payload)
	if err != nil || ae == nil || ae.Code != api.CodeNotFound {
		t.Fatalf("bad ack = %+v, %v, want not_found", ae, err)
	}
}

func TestXTPPingStats(t *testing.T) {
	_, addr := startXTP(t, nil)
	_, r, w := dialRaw(t, addr)

	if err := w.WriteFrame(wire.FramePing, 9, nil); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil || f.Type != wire.FramePong || f.Corr != 9 {
		t.Fatalf("pong = %+v, %v", f, err)
	}

	if err := w.WriteFrame(wire.FrameStatsReq, 10, nil); err != nil {
		t.Fatal(err)
	}
	if f, err = r.ReadFrame(); err != nil || f.Type != wire.FrameStatsResp {
		t.Fatalf("stats frame = %+v, %v", f, err)
	}
	var st api.Stats
	if err := json.Unmarshal(f.Payload, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Synopses) != 1 || st.Synopses[0].Name != "fig2" {
		t.Fatalf("stats = %+v", st)
	}
}

// TestXTPPipelining issues many requests before reading anything; every
// response must come back tagged with its own correlation ID.
func TestXTPPipelining(t *testing.T) {
	_, addr := startXTP(t, nil)
	_, r, w := dialRaw(t, addr)

	const n = 32
	for i := 1; i <= n; i++ {
		req := wire.AppendEstimateReq(nil, "fig2", []string{fmt.Sprintf("/a/c/s[%d]", i)}, false)
		if err := w.WriteFrame(wire.FrameEstimateReq, uint64(i), req); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.FrameEstimateResp {
			t.Fatalf("frame %d = %s", i, f.Type)
		}
		if f.Corr < 1 || f.Corr > n || seen[f.Corr] {
			t.Fatalf("corr %d out of range or duplicated", f.Corr)
		}
		seen[f.Corr] = true
	}
}

func TestXTPBadHandshakeDropsConnection(t *testing.T) {
	_, addr := startXTP(t, nil)
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("GET /estimate HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server must hang up without speaking xtp to a non-xtp peer.
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatalf("server answered a bad handshake with %q", buf)
	}
}

func TestXTPVersionMismatchAnswersThenCloses(t *testing.T) {
	_, addr := startXTP(t, nil)
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteHandshake(c, 99); err != nil {
		t.Fatal(err)
	}
	// The refusal still carries the server's version — that is how an old
	// client learns what to report.
	ver, err := wire.ReadHandshake(c)
	if err != nil {
		t.Fatal(err)
	}
	if ver != wire.Version {
		t.Fatalf("server answered version %d, want %d", ver, wire.Version)
	}
	buf := make([]byte, 1)
	if _, err := c.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read after mismatch = %v, want EOF", err)
	}
}

func TestXTPUnknownFrameIsTerminal(t *testing.T) {
	_, addr := startXTP(t, nil)
	_, r, w := dialRaw(t, addr)

	if err := w.WriteFrame(wire.FrameType(0x7F), 5, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError || f.Corr != 5 {
		t.Fatalf("frame = %s corr %d, want Error corr 5", f.Type, f.Corr)
	}
	ae, err := wire.DecodeError(f.Payload)
	if err != nil || ae.Code != api.CodeBadRequest {
		t.Fatalf("error = %+v, %v, want bad_request", ae, err)
	}
	if _, err := r.ReadFrame(); err == nil {
		t.Fatal("connection survived a protocol error")
	}
}

func TestXTPGoawayOnShutdown(t *testing.T) {
	reg := NewRegistry(64, 0)
	defer reg.Close()
	x := NewXTP(reg, XTPOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- x.Serve(ln) }()

	c, r, _ := dialRaw(t, ln.Addr().String())
	_ = c

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := x.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("expected Goaway before close, got %v", err)
	}
	if f.Type != wire.FrameGoaway || f.Corr != 0 {
		t.Fatalf("frame = %s corr %d, want Goaway corr 0", f.Type, f.Corr)
	}
}

// TestXTPMetricsFamilies drives every request kind and asserts the
// xseed_xtp_* families land in the Prometheus exposition.
func TestXTPMetricsFamilies(t *testing.T) {
	om := obs.NewRegistry()
	_, addr := startXTP(t, om)
	_, r, w := dialRaw(t, addr)

	req := wire.AppendEstimateReq(nil, "fig2", []string{"/a/c/s"}, false)
	w.WriteFrame(wire.FrameEstimateReq, 1, req)
	w.WriteFrame(wire.FrameFeedbackReq, 2, wire.AppendFeedbackReq(nil, "fig2", "/a/c/s", 2))
	w.WriteFrame(wire.FrameStatsReq, 3, nil)
	w.WriteFrame(wire.FrameEstimateReq, 4, wire.AppendEstimateReq(nil, "nope", []string{"/a"}, false))
	// Frame types past 0x10 must count under their own labels, not share
	// one slot.
	w.WriteFrame(wire.FrameFeedbackBatchReq, 5, wire.AppendFeedbackBatchReq(nil, "fig2",
		[]api.FeedbackItem{{Query: "/a/c/s", Actual: 2}}))
	w.WriteFrame(wire.FrameRingReq, 6, nil)
	for i := 0; i < 6; i++ {
		if _, err := r.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}

	wants := []string{
		"xseed_xtp_connections 1",
		"xseed_xtp_connections_total 1",
		`xseed_xtp_frames_total{dir="in",type="EstimateReq"} 2`,
		`xseed_xtp_frames_total{dir="out",type="FeedbackAck"} 1`,
		`xseed_xtp_frames_total{dir="in",type="FeedbackBatchReq"} 1`,
		`xseed_xtp_frames_total{dir="out",type="FeedbackBatchAck"} 1`,
		`xseed_xtp_frames_total{dir="in",type="RingReq"} 1`,
		`xseed_xtp_frames_total{dir="out",type="Error"} 2`,
		`xseed_xtp_request_seconds_count{kind="estimate"}`,
		`xseed_xtp_errors_total{code="not_found"} 1`,
		`xseed_xtp_bytes_total{dir="in"}`,
	}
	// A sent frame is counted once its write returns, which can be after
	// the client has read it: poll until the last writes are counted.
	var missing []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var sb strings.Builder
		if err := om.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		missing = missing[:0]
		for _, want := range wants {
			if !strings.Contains(sb.String(), want) {
				missing = append(missing, want)
			}
		}
		if len(missing) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range missing {
		t.Errorf("metrics missing %q", want)
	}
}
