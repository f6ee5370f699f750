package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xseed"
	"xseed/api"
	"xseed/client"
	"xseed/internal/fixtures"
	"xseed/internal/logx"
	"xseed/internal/obs"
	"xseed/internal/wire"
	"xseed/internal/xpath"
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
	return reg, serveXTP(t, reg, om)
}

// serveXTP serves the binary protocol over reg on a loopback listener until
// the test ends, then closes reg, and returns the listener's address.
func serveXTP(t testing.TB, reg *Registry, om *obs.Registry) string {
	t.Helper()
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
	return ln.Addr().String()
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

// exchange sends one frame and reads the next, which must answer it.
func exchange(t *testing.T, r *wire.Reader, w *wire.Writer, ft wire.FrameType, corr uint64, payload []byte) wire.Frame {
	t.Helper()
	if err := w.WriteFrame(ft, corr, payload); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("%s %d: no answer: %v", ft, corr, err)
	}
	if f.Corr != corr {
		t.Fatalf("%s %d answered with corr %d", ft, corr, f.Corr)
	}
	return f
}

// parseErrorItem returns the one item of an EstimateResp, which must be a
// parse_error at offset.
func parseErrorItem(t *testing.T, f wire.Frame, offset int) api.EstimateItem {
	t.Helper()
	if f.Type != wire.FrameEstimateResp {
		t.Fatalf("frame = %s, want EstimateResp", f.Type)
	}
	items, err := wire.DecodeEstimateResp(f.Payload)
	if err != nil || len(items) != 1 {
		t.Fatalf("items = %d, %v; want 1", len(items), err)
	}
	it := items[0]
	if it.Error == nil || it.Error.Code != api.CodeParseError {
		t.Fatalf("item error = %v, want parse_error", it.Error)
	}
	if d, ok := it.Error.ParseDetail(); !ok || d.Offset != offset {
		t.Fatalf("parse detail = %+v, %v; want offset %d", d, ok, offset)
	}
	return it
}

// TestXTPDeeplyNestedQuery: a query nesting predicates millions deep is a
// per-item parse_error at the '[' past the nesting cap, not a stack
// overflow that takes the daemon down, its item echoes only the query's
// first api.MaxQueryEcho bytes, and the connection stays usable.
func TestXTPDeeplyNestedQuery(t *testing.T) {
	_, addr := startXTP(t, nil)
	c, r, w := dialRaw(t, addr)
	c.SetDeadline(time.Now().Add(60 * time.Second))
	const depth = 3_300_000 // 9.9 MB
	q := "/a" + strings.Repeat("[b", depth) + strings.Repeat("]", depth)
	f := exchange(t, r, w, wire.FrameEstimateReq, 1, wire.AppendEstimateReq(nil, "fig2", []string{q}, false))
	if it := parseErrorItem(t, f, len("/a")+2*xpath.MaxNesting); it.Query != q[:api.MaxQueryEcho] {
		t.Fatalf("item echoes %d bytes of the %d-byte query, want its first %d", len(it.Query), len(q), api.MaxQueryEcho)
	}
	if f := exchange(t, r, w, wire.FramePing, 2, nil); f.Type != wire.FramePong {
		t.Fatalf("ping answered with %s", f.Type)
	}
}

// TestXTPFlatQueryOverStepCap: a flat query of 15 MiB is a per-item
// parse_error at the step past the cap, and its item echoes only the
// query's first api.MaxQueryEcho bytes. Neither its parse nor its answer
// allocates for its length: the whole exchange, both ends of it in this
// process, allocates the request frame's copies of the query, where a
// parse of it would take some 160 bytes per byte and a whole echo two
// more copies. The connection then answers a Ping.
func TestXTPFlatQueryOverStepCap(t *testing.T) {
	_, addr := startXTP(t, nil)
	c, r, w := dialRaw(t, addr)
	c.SetDeadline(time.Now().Add(60 * time.Second))
	q := strings.Repeat("/a", 15<<19) // 15 MiB
	req := wire.AppendEstimateReq(nil, "fig2", []string{q}, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := exchange(t, r, w, wire.FrameEstimateReq, 1, req)
	it := parseErrorItem(t, f, 2*xpath.MaxSteps)
	runtime.ReadMemStats(&after)
	if it.Query != q[:api.MaxQueryEcho] {
		t.Fatalf("item echoes %d bytes of the %d-byte query, want its first %d", len(it.Query), len(q), api.MaxQueryEcho)
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("the exchange allocated %d bytes, %.2f× the query", n, float64(n)/float64(len(q)))
	if float64(n) > 3.5*float64(len(q)) {
		t.Errorf("the exchange allocated %d bytes for a %d-byte query", n, len(q))
	}
	if f := exchange(t, r, w, wire.FramePing, 2, nil); f.Type != wire.FramePong {
		t.Fatalf("ping answered with %s", f.Type)
	}
}

// TestXTPOverLimitResponse: a request whose response would not fit in one
// frame gets an Error frame naming the size and the limit, and the
// connection stays usable. A malformed query of megabytes fits, whether
// its error lies at the byte cap or before a long unparsed tail, since its
// parse error quotes only excerpts of it; so does one of bytes that are
// not UTF-8, whose excerpt must stop at the query's start. A batch of
// 250,000 short malformed queries, each answered with a parse error 20
// times its size, does not fit.
func TestXTPOverLimitResponse(t *testing.T) {
	_, addr := startXTP(t, nil)
	c, r, w := dialRaw(t, addr)
	c.SetDeadline(time.Now().Add(60 * time.Second))

	unterminated := "/" + strings.Repeat("a", 9_400_000) + "["
	corr := uint64(0)
	for _, tc := range []struct {
		q      string
		offset int
	}{
		{unterminated, xpath.MaxQueryBytes},
		{"/a]" + strings.Repeat("a", 9_400_000), len("/a")},
		{strings.Repeat("\x80", 65), 0},
	} {
		corr++
		f := exchange(t, r, w, wire.FrameEstimateReq, corr, wire.AppendEstimateReq(nil, "fig2", []string{tc.q}, false))
		if it := parseErrorItem(t, f, tc.offset); len(it.Error.Msg) > 300 {
			t.Fatalf("%d-byte query: parse error message is %d bytes, want a short excerpt", len(tc.q), len(it.Error.Msg))
		}
	}

	batch := make([]string, 250_000)
	for i := range batch {
		batch[i] = "/a["
	}
	f := exchange(t, r, w, wire.FrameEstimateReq, corr+1, wire.AppendEstimateReq(nil, "fig2", batch, false))
	if f.Type != wire.FrameError {
		t.Fatalf("over-limit response answered with %s, want Error", f.Type)
	}
	ae, err := wire.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ae.Code != api.CodeBadRequest || !strings.Contains(ae.Msg, fmt.Sprint(wire.MaxFrame)) {
		t.Fatalf("error = %v, want bad_request naming the %d-byte limit", ae, wire.MaxFrame)
	}
	if f := exchange(t, r, w, wire.FramePing, corr+2, nil); f.Type != wire.FramePong {
		t.Fatalf("ping answered with %s", f.Type)
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

// TestXTPBodylessRequestWithPayload: Ping, StatsReq and RingReq carry no
// payload, so one that does means the stream lost framing sync: the server
// answers bad_request and closes the connection (docs/PROTOCOL.md §3).
func TestXTPBodylessRequestWithPayload(t *testing.T) {
	_, addr := startXTP(t, nil)
	for _, ft := range []wire.FrameType{wire.FramePing, wire.FrameStatsReq, wire.FrameRingReq} {
		t.Run(ft.String(), func(t *testing.T) {
			_, r, w := dialRaw(t, addr)
			if err := w.WriteFrame(ft, 3, []byte("abc")); err != nil {
				t.Fatal(err)
			}
			f, err := r.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if f.Type != wire.FrameError || f.Corr != 3 {
				t.Fatalf("frame = %s corr %d, want Error corr 3", f.Type, f.Corr)
			}
			if ae, err := wire.DecodeError(f.Payload); err != nil || ae.Code != api.CodeBadRequest {
				t.Fatalf("error = %+v, %v, want bad_request", ae, err)
			}
			if _, err := r.ReadFrame(); !errors.Is(err, io.EOF) {
				t.Fatalf("read after the error = %v, want EOF", err)
			}
		})
	}
}

// TestXTPCachedEstimateOvertakesSlowBatch: the reader answers an estimate
// the cache holds whole and dispatches one with a miss, so a cached
// estimate sent behind a slow uncached batch on the same connection comes
// back first. The reader's probe stops at the slow batch's first miss and
// the dispatched finish probes only the rest, so the exchange counts one
// cache lookup per query: one hit, 4,000 misses.
func TestXTPCachedEstimateOvertakesSlowBatch(t *testing.T) {
	reg, addr := startXTP(t, nil)
	_, r, w := dialRaw(t, addr)
	if _, err := reg.Estimate(context.Background(), "fig2", "/a/c/s", false); err != nil {
		t.Fatal(err)
	}
	slow := make([]string, 4000)
	for i := range slow {
		slow[i] = fmt.Sprintf("/a/c[s/t][p]/s[%d]//t", i+1)
	}
	before := reg.cache.Stats()
	start := time.Now()
	if err := w.WriteFrame(wire.FrameEstimateReq, 1, wire.AppendEstimateReq(nil, "fig2", slow, false)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if err := w.WriteFrame(wire.FrameEstimateReq, 2, wire.AppendEstimateReq(nil, "fig2", []string{"/a/c/s"}, false)); err != nil {
		t.Fatal(err)
	}
	var order []uint64
	for len(order) < 2 {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.FrameEstimateResp {
			t.Fatalf("frame %s corr %d, want EstimateResp", f.Type, f.Corr)
		}
		items, err := wire.DecodeEstimateResp(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Corr {
		case 1:
			if len(items) != len(slow) || items[0].Cached || items[0].Error != nil {
				t.Fatalf("slow batch answered %d items, first %+v", len(items), items[0])
			}
		case 2:
			if len(items) != 1 || !items[0].Cached {
				t.Fatalf("cached estimate answered %+v", items)
			}
		}
		t.Logf("corr %d answered %v after the first write", f.Corr, time.Since(start))
		order = append(order, f.Corr)
	}
	if order[0] != 2 {
		t.Fatal("the cached estimate waited behind the slow batch sent before it")
	}
	after := reg.cache.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != int64(len(slow)) {
		t.Fatalf("cache counted %d hits and %d misses, want 1 and %d: one probe per query", hits, misses, len(slow))
	}
}

// TestXTPCachedFrameMatchesRegistry: the reader's answer to a frame the
// cache answers whole, repeats included, is the bytes the registry's own
// answer to the same queries encodes to.
func TestXTPCachedFrameMatchesRegistry(t *testing.T) {
	reg, addr := startXTP(t, nil)
	_, r, w := dialRaw(t, addr)
	queries := []string{"/a/c/s", "//s//p", "/a/c/s", "/a/c[s/t]"}
	ctx := context.Background()
	if _, err := reg.EstimateBatch(ctx, "fig2", queries, false); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(wire.FrameEstimateReq, 1, wire.AppendEstimateReq(nil, "fig2", queries, false)); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	items, err := reg.EstimateBatch(ctx, "fig2", queries, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if !it.Cached {
			t.Fatalf("item %d = %+v, want cached", i, it)
		}
	}
	if want := wire.AppendEstimateResp(nil, items); f.Type != wire.FrameEstimateResp || !bytes.Equal(f.Payload, want) {
		t.Fatalf("frame %s payload %x, want EstimateResp %x", f.Type, f.Payload, want)
	}
}

// TestXTPReaderHammer: four callers share one client connection, mixing
// cached estimates, which the server's reader answers, with uncached ones,
// which it dispatches, while feedback publishes successor snapshots and a
// Shutdown lands mid-stream. Every call must come back with its own answer
// or unavailable, and no request handler or reader may run past Shutdown.
func TestXTPReaderHammer(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	reg := NewRegistry(1024, 0)
	defer reg.Close()
	if _, err := reg.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	cached := []string{"/a/c/s", "//s//p", "/a/c/s/t", "/a/c[p]/s"}
	if _, err := reg.EstimateBatch(context.Background(), "fig2", cached, false); err != nil {
		t.Fatal(err)
	}
	x := NewXTP(reg, XTPOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- x.Serve(ln) }()
	cl, err := client.DialXTP(ln.Addr().String(), client.WithXTPSynopsis("fig2"))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answered, unavailable atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := cached[(g+i)%len(cached)]
				if i%2 == 1 {
					q = fmt.Sprintf("/a/c/s[%d]", g*1_000_000+i)
				}
				pq, err := xseed.ParseQuery(q)
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				res, err := cl.EstimateBatch(ctx, []string{q})
				cancel()
				var ae *api.Error
				switch {
				case err == nil:
					if len(res) != 1 || res[0].Err != nil || res[0].Query != pq.String() {
						t.Errorf("caller %d: %s answered %+v", g, q, res)
						return
					}
					answered.Add(1)
				case errors.As(err, &ae) && ae.Code == api.CodeUnavailable:
					unavailable.Add(1)
				default:
					t.Errorf("caller %d: %s failed with %v, want its answer or unavailable", g, q, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if err := reg.Feedback("fig2", "/a/u", float64(1+i%3)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	waitFor := func(n *atomic.Int64, min int64) {
		for deadline := time.Now().Add(5 * time.Second); n.Load() < min && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(&answered, 200)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := x.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if live := xtpGoroutines(); live != "" {
		t.Errorf("xtp goroutines outlived Shutdown:\n%s", live)
	}
	waitFor(&unavailable, 4)
	close(stop)
	wg.Wait()
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if answered.Load() == 0 || unavailable.Load() == 0 {
		t.Fatalf("%d answered and %d unavailable calls, want both", answered.Load(), unavailable.Load())
	}
}

// TestEstimateScratchHammer: a batch of more than 8 queries borrows its
// dedup table and repeat list from a pool, and gives them back when it
// settles. Four callers send 64-query batches over two xtp connections
// and HTTP, mixing repeats, misses against a 256-entry cache and one
// malformed query per batch, and every third batch from each caller is
// made of cached queries only, which the xtp reader answers itself;
// meanwhile feedback publishes every millisecond. Every item must carry
// its own query's normalized text, or a parse_error for the malformed
// query: a table given back before its batch settles is refilled by
// another batch underneath it.
func TestEstimateScratchHammer(t *testing.T) {
	s, err := New(Config{CacheCapacity: 256, Logger: logx.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, syn := buildFixtureSynopsis(t, nil)
	if _, err := s.reg.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	x := NewXTP(s.reg, XTPOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- x.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := x.Shutdown(ctx); err != nil {
			t.Errorf("xtp shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("xtp serve: %v", err)
		}
	}()
	type batcher interface {
		EstimateBatch(context.Context, []string) ([]xseed.Result, error)
	}
	var conns [2]batcher
	for i := range conns {
		cl, err := client.DialXTP(ln.Addr().String(), client.WithXTPSynopsis("fig2"))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		conns[i] = cl
	}
	hc, err := client.New(ts.URL, client.WithSynopsis("fig2"))
	if err != nil {
		t.Fatal(err)
	}
	callers := []batcher{conns[0], conns[1], hc, conns[0]}

	// Spellings whose normalized text differs from the query, so that an
	// item answered for another query shows.
	hot := []string{"/a/c/s", "//s//p", "/a/c[./p]/s", "/a[//s]/c", "/a/./c", "/a/c/s[.//t]"}
	const malformed = "/a/c["
	var fresh atomic.Int64
	batch := func(rng *rand.Rand, cachedOnly bool) []string {
		qs := make([]string, 64)
		for j := range qs {
			switch {
			case cachedOnly || j%4 == 0:
				qs[j] = hot[rng.Intn(len(hot))]
			case j%4 == 1:
				qs[j] = fmt.Sprintf("/a/c/s[./n%d]", fresh.Add(1))
			case j%4 == 2:
				qs[j] = qs[rng.Intn(j)] // a repeat
			default:
				qs[j] = fmt.Sprintf("/a/c[./m%d]/s", rng.Intn(300))
			}
		}
		if !cachedOnly {
			qs[rng.Intn(len(qs))] = malformed
		}
		return qs
	}
	if _, err := s.reg.EstimateBatch(context.Background(), "fig2", hot, false); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var fb sync.WaitGroup
	fb.Add(1)
	go func() {
		defer fb.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if err := s.reg.Feedback("fig2", "/a/u", float64(1+i%3)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g, cl := range callers {
		wg.Add(1)
		go func(g int, cl batcher) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				qs := batch(rng, i%3 == 2)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := cl.EstimateBatch(ctx, qs)
				cancel()
				if err != nil {
					t.Errorf("caller %d: %v", g, err)
					return
				}
				if len(res) != len(qs) {
					t.Errorf("caller %d: %d results for %d queries", g, len(res), len(qs))
					return
				}
				for j, q := range qs {
					var ae *api.Error
					if q == malformed {
						if !errors.As(res[j].Err, &ae) || ae.Code != api.CodeParseError || res[j].Query != q {
							t.Errorf("caller %d: item %d of %q = %+v, want a parse_error", g, j, q, res[j])
							return
						}
						continue
					}
					if want := xseed.MustParseQuery(q).String(); res[j].Err != nil || res[j].Query != want {
						t.Errorf("caller %d: item %d of %q = %+v, want %q", g, j, q, res[j], want)
						return
					}
				}
			}
		}(g, cl)
	}
	wg.Wait()
	close(stop)
	fb.Wait()
}

// xtpGoroutines returns the stacks of goroutines reading an xtp connection
// or serving one of its requests.
func xtpGoroutines() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var live []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "(*xtpConn).serve") || strings.Contains(g, "(*xtpConn).readLoop") {
			live = append(live, g)
		}
	}
	return strings.Join(live, "\n\n")
}
