package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"xseed"
	"xseed/api"
	"xseed/internal/fixtures"
	"xseed/internal/xpath"
)

// normalizeBody makes two servers' responses comparable: JSON bodies are
// re-marshaled with volatile fields (creation timestamps) stripped
// recursively; non-JSON bodies compare raw.
func normalizeBody(t *testing.T, b []byte) string {
	t.Helper()
	if len(bytes.TrimSpace(b)) == 0 {
		return ""
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return string(b)
	}
	var strip func(any) any
	strip = func(x any) any {
		switch x := x.(type) {
		case map[string]any:
			delete(x, "created")
			for k, v := range x {
				x[k] = strip(v)
			}
		case []any:
			for i := range x {
				x[i] = strip(x[i])
			}
		}
		return x
	}
	out, err := json.Marshal(strip(v))
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRemovedAliasRoutes locks the alias sunset: every pre-/v1 unversioned
// path (the api.Routes Legacy column) now answers 404 with a typed
// not_found whose message and Link header point at the /v1 successor —
// never a plain-text mux 404, and never the old aliased behavior. The /v1
// twin keeps serving. The table comes from api.Routes, so the regression
// holds for exactly the set of paths that were ever aliased.
func TestRemovedAliasRoutes(t *testing.T) {
	s, err := New(Config{CacheCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := xseed.BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("fig2", fig2, "xml upload"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })

	aliased := 0
	for _, rt := range api.Routes() {
		if rt.Legacy == "" {
			continue
		}
		aliased++
		t.Run(rt.Method+" "+rt.Legacy, func(t *testing.T) {
			path := strings.ReplaceAll(rt.Legacy, "{name}", "fig2")
			req, err := http.NewRequest(rt.Method, ts.URL+path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("removed alias %s %s: status %d, want 404", rt.Method, path, resp.StatusCode)
			}
			var env api.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("removed alias body is not the error envelope: %v", err)
			}
			if env.Err == nil || env.Err.Code != api.CodeNotFound {
				t.Fatalf("removed alias error = %+v, want typed %s", env.Err, api.CodeNotFound)
			}
			if !strings.Contains(env.Err.Msg, "/v1"+path) {
				t.Errorf("error message %q does not name the successor /v1%s", env.Err.Msg, path)
			}
			if link := resp.Header.Get("Link"); !strings.Contains(link, "/v1"+path) || !strings.Contains(link, "successor-version") {
				t.Errorf("Link header = %q, want successor-version /v1%s", link, path)
			}
			// The /v1 twin is mounted and does not 404 on the same method
			// (GET routes answer 200; mutating routes at worst reject the
			// placeholder body with a 4xx that is not not_found-at-the-mux).
			v1req, err := http.NewRequest(rt.Method, ts.URL+"/v1"+path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			v1resp, err := ts.Client().Do(v1req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, v1resp.Body)
			v1resp.Body.Close()
			if v1resp.StatusCode == http.StatusMethodNotAllowed {
				t.Errorf("/v1%s: successor not mounted for %s", path, rt.Method)
			}
		})
	}
	if aliased < 10 {
		t.Fatalf("only %d removed aliases exercised; the regression surface shrank", aliased)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHTTPEstimatePartialSuccess locks the batch contract: a mid-batch
// parse failure yields 200 with per-query typed errors — offset preserved —
// alongside the successful estimates.
func TestHTTPEstimatePartialSuccess(t *testing.T) {
	_, ts := newTestServer(t)
	createFixture(t, ts, "fig2")

	var resp api.EstimateResponse
	httpResp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate",
		api.EstimateRequest{Queries: []string{"/a/c/s", "/a/c[", "//s//p"}}, &resp)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("partial-success batch: status %d, want 200", httpResp.StatusCode)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if resp.Results[0].Error != nil || resp.Results[0].Estimate <= 0 {
		t.Errorf("results[0] = %+v", resp.Results[0])
	}
	if resp.Results[2].Error != nil || resp.Results[2].Estimate <= 0 {
		t.Errorf("results[2] = %+v", resp.Results[2])
	}
	bad := resp.Results[1]
	if bad.Error == nil || bad.Error.Code != api.CodeParseError {
		t.Fatalf("results[1] error = %+v, want %s", bad.Error, api.CodeParseError)
	}
	if d, ok := bad.Error.ParseDetail(); !ok || d.Offset != len("/a/c[") {
		t.Errorf("parse detail = %+v ok=%v, want offset %d", d, ok, len("/a/c["))
	}
}

// TestHTTPFlatQueryOverStepCap is TestXTPFlatQueryOverStepCap over HTTP
// JSON: a flat query of 15 MiB is a per-item parse_error at the step past
// the cap, its item echoes only the query's first api.MaxQueryEcho bytes,
// and the exchange allocates no more than the request body's copies of
// the query.
func TestHTTPFlatQueryOverStepCap(t *testing.T) {
	_, ts := newTestServer(t)
	createFixture(t, ts, "fig2")
	q := strings.Repeat("/a", 15<<19) // 15 MiB
	body := []byte(`{"queries":["` + q + `"]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := ts.Client().Post(ts.URL+"/v1/synopses/fig2/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out api.EstimateResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if err != nil || resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
		t.Fatalf("status %d, %d items, %v; want 200 and one item", resp.StatusCode, len(out.Results), err)
	}
	it := out.Results[0]
	if it.Error == nil || it.Error.Code != api.CodeParseError {
		t.Fatalf("item error = %+v, want %s", it.Error, api.CodeParseError)
	}
	if d, ok := it.Error.ParseDetail(); !ok || d.Offset != 2*xpath.MaxSteps {
		t.Errorf("parse detail = %+v ok=%v, want offset %d", d, ok, 2*xpath.MaxSteps)
	}
	if it.Query != q[:api.MaxQueryEcho] {
		t.Fatalf("item echoes %d bytes of the %d-byte query, want its first %d", len(it.Query), len(q), api.MaxQueryEcho)
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("the exchange allocated %d bytes, %.2f× the query", n, float64(n)/float64(len(q)))
	if float64(n) > 3.5*float64(len(q)) {
		t.Errorf("the exchange allocated %d bytes for a %d-byte query", n, len(q))
	}
}

// TestFeedbackParseErrorTyped locks the satellite fix: a feedback (and
// subtree) request whose input does not parse fails through the same
// api.WrapError path as estimate queries — Registry.Feedback itself returns
// a typed *api.Error, and the wire response is a parse_error whose detail
// carries the byte offset, exactly like a batch-estimate parse failure.
func TestFeedbackParseErrorTyped(t *testing.T) {
	srv, ts := newTestServer(t)
	createFixture(t, ts, "fig2")

	// Registry-level: the error is typed before the HTTP layer touches it.
	err := srv.Registry().Feedback("fig2", "/a/c[", 5)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeParseError {
		t.Fatalf("Registry.Feedback parse failure = %#v, want *api.Error %s", err, api.CodeParseError)
	}
	if d, ok := ae.ParseDetail(); !ok || d.Offset != len("/a/c[") {
		t.Fatalf("registry parse detail = %+v ok=%v, want offset %d", d, ok, len("/a/c["))
	}

	// Wire-level: same code and structural offset as the estimate endpoint.
	var env api.ErrorResponse
	httpResp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/feedback",
		api.FeedbackRequest{Query: "/a/c[", Actual: 5}, &env)
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("feedback parse failure: status %d, want 400", httpResp.StatusCode)
	}
	if env.Err == nil || env.Err.Code != api.CodeParseError {
		t.Fatalf("feedback error = %+v, want %s", env.Err, api.CodeParseError)
	}
	if d, ok := env.Err.ParseDetail(); !ok || d.Offset != len("/a/c[") {
		t.Fatalf("feedback parse detail = %+v ok=%v, want offset %d", d, ok, len("/a/c["))
	}

	// Subtree: a malformed XML payload follows the same typed path
	// (bad_request — there is no XPath offset to carry).
	if err := srv.Registry().AddSubtree("fig2", []string{"a"}, "<unclosed"); err == nil {
		t.Fatal("malformed subtree XML accepted")
	} else if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest {
		t.Fatalf("Registry.AddSubtree parse failure = %#v, want *api.Error %s", err, api.CodeBadRequest)
	}
}

// TestEstimateBatchCancellation proves the registry read path honors
// context cancellation instead of estimating a dead request's batch.
func TestEstimateBatchCancellation(t *testing.T) {
	r := NewRegistry(0, 0)
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.EstimateBatch(ctx, "fig2", []string{"/a/c/s"}, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", err)
	}
	// An unknown synopsis still reports not-found even when canceled —
	// registry lookup precedes the context gate — and a live context works.
	if _, err := r.EstimateBatch(context.Background(), "fig2", []string{"/a/c/s"}, false); err != nil {
		t.Fatalf("live batch failed: %v", err)
	}
}
