package api

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"xseed/internal/xpath"
)

// TestEchoQuery: a query within the byte cap echoes whole; a longer one by
// at most MaxQueryEcho bytes, cut before a character MaxQueryEcho would
// split.
func TestEchoQuery(t *testing.T) {
	atCap := strings.Repeat("a", xpath.MaxQueryBytes)
	if got := EchoQuery(atCap); got != atCap {
		t.Errorf("a %d-byte query echoes %d bytes, want all", len(atCap), len(got))
	}
	over := atCap + "b"
	if got := EchoQuery(over); got != over[:MaxQueryEcho] {
		t.Errorf("a %d-byte query echoes %q, want its first %d bytes", len(over), got, MaxQueryEcho)
	}
	// "é" is two bytes: one starting at MaxQueryEcho-1 would be split.
	split := strings.Repeat("a", MaxQueryEcho-1) + strings.Repeat("é", xpath.MaxQueryBytes)
	if got := EchoQuery(split); got != split[:MaxQueryEcho-1] {
		t.Errorf("echo = %q (%d bytes), want the %d bytes before the split character", got, len(got), MaxQueryEcho-1)
	}
	if got := EchoQuery(strings.Repeat("\x80", xpath.MaxQueryBytes+1)); got != "" {
		t.Errorf("a query of continuation bytes echoes %q, want nothing", got)
	}
}

// TestErrorCodeRoundTrip proves the acceptance contract: every code maps
// server → HTTP status → client back to the same code, with message and
// structured detail intact.
func TestErrorCodeRoundTrip(t *testing.T) {
	codes := []string{
		CodeBadRequest, CodeParseError, CodeNotFound, CodeConflict,
		CodeCanceled, CodeUnauthorized, CodeQuotaExceeded,
		CodeMoved, CodeUnavailable, CodeInternal,
	}
	for _, code := range codes {
		in := Errorf(code, "boom %s", code)
		if code == CodeParseError {
			in = NewParseError("boom", 7, "???")
		}
		if code == CodeMoved {
			in = NewMovedError("orders", "http://10.0.0.2:8080", 9)
			in.Msg = "boom " + code
		}
		rr := httptest.NewRecorder()
		WriteError(rr, in)
		if rr.Code != in.HTTPStatus() {
			t.Errorf("%s: wrote status %d, want %d", code, rr.Code, in.HTTPStatus())
		}
		out := DecodeErrorBody(rr.Code, rr.Body.Bytes())
		if out.Code != code {
			t.Errorf("%s: round-tripped to code %q", code, out.Code)
		}
		if out.Msg != in.Msg {
			t.Errorf("%s: message %q -> %q", code, in.Msg, out.Msg)
		}
		if code == CodeParseError {
			d, ok := out.ParseDetail()
			if !ok || d.Offset != 7 || d.Token != "???" {
				t.Errorf("parse detail did not survive: %+v ok=%v", d, ok)
			}
		}
		if code == CodeMoved {
			d, ok := out.MovedDetail()
			if !ok || d.Owner != "http://10.0.0.2:8080" || d.Epoch != 9 {
				t.Errorf("moved detail did not survive: %+v ok=%v", d, ok)
			}
		}
	}
}

func TestDecodeErrorBodyFallback(t *testing.T) {
	// A proxy's HTML error page still yields a typed error.
	e := DecodeErrorBody(503, []byte("<html>bad gateway-ish</html>"))
	if e.Code != CodeUnavailable || !strings.Contains(e.Msg, "bad gateway") {
		t.Errorf("fallback = %+v", e)
	}
	if e := DecodeErrorBody(404, nil); e.Code != CodeNotFound || e.Msg == "" {
		t.Errorf("empty-body fallback = %+v", e)
	}
	if e := DecodeErrorBody(418, []byte("teapot")); e.Code != CodeBadRequest {
		t.Errorf("unknown 4xx fallback = %+v", e)
	}
	if e := DecodeErrorBody(502, []byte("x")); e.Code != CodeInternal {
		t.Errorf("5xx fallback = %+v", e)
	}
}

func TestWrapError(t *testing.T) {
	// An XPath parse failure keeps its offset and offending token.
	_, perr := xpath.Parse("/a/b[c]??")
	if perr == nil {
		t.Fatal("expected parse error")
	}
	we := WrapError(perr, CodeBadRequest)
	if we.Code != CodeParseError {
		t.Fatalf("wrapped code = %q", we.Code)
	}
	pe, isParse := perr.(*xpath.ParseError)
	if !isParse {
		t.Fatalf("xpath.Parse returned %T", perr)
	}
	d, ok := we.ParseDetail()
	if !ok || d.Offset != pe.Pos || d.Token == "" {
		t.Fatalf("parse detail = %+v ok=%v, want offset %d", d, ok, pe.Pos)
	}

	// A wrapped *Error passes through unchanged.
	orig := Errorf(CodeNotFound, "nope")
	if got := WrapError(fmt.Errorf("outer: %w", orig), CodeInternal); got != orig {
		t.Errorf("wrapped *Error not unwrapped: %+v", got)
	}

	// Context errors become CodeCanceled.
	if got := WrapError(context.Canceled, CodeInternal); got.Code != CodeCanceled {
		t.Errorf("context.Canceled -> %q", got.Code)
	}
	if got := WrapError(fmt.Errorf("rpc: %w", context.DeadlineExceeded), CodeInternal); got.Code != CodeCanceled {
		t.Errorf("deadline -> %q", got.Code)
	}

	// Anything else takes the fallback code.
	if got := WrapError(fmt.Errorf("weird"), CodeConflict); got.Code != CodeConflict {
		t.Errorf("fallback -> %q", got.Code)
	}
}

// TestReadmeRouteTableInSync keeps api/README.md's generated route table
// identical to the Routes() metadata the server mounts from.
func TestReadmeRouteTableInSync(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), RoutesMarkdown()) {
		t.Fatalf("api/README.md route table is stale; regenerate it from api.RoutesMarkdown():\n%s", RoutesMarkdown())
	}
}

func TestRouteTableShape(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Routes() {
		// /metrics is the one sanctioned unversioned route: Prometheus
		// convention puts the exposition at exactly that path.
		if !strings.HasPrefix(r.Path, "/v1/") && r.Path != "/metrics" {
			t.Errorf("route %s %s is not versioned", r.Method, r.Path)
		}
		if r.Legacy != "" && !strings.HasPrefix(r.Path, "/v1"+r.Legacy) {
			t.Errorf("legacy alias %s does not prefix-map to %s", r.Legacy, r.Path)
		}
		key := r.Method + " " + r.Path
		if seen[key] {
			t.Errorf("duplicate route %s", key)
		}
		seen[key] = true
	}
}
