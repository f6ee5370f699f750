package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"xseed/api"

	"xseed"
	"xseed/internal/fixtures"
	"xseed/internal/logx"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{CacheCapacity: 1024, Logger: logx.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, client *http.Client, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: unmarshal %q: %v", method, url, data, err)
		}
	}
	return resp
}

func createFixture(t *testing.T, ts *httptest.Server, name string) api.SynopsisInfo {
	t.Helper()
	var info api.SynopsisInfo
	resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses",
		api.CreateRequest{Name: name, XML: fixtures.PaperFigure2}, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d", name, resp.StatusCode)
	}
	return info
}

// TestHTTPCreateConfigCompat: a create request may still carry the retired
// reuseEPT knob (the body decoder rejects unknown fields, so it must stay
// decodable), and a card threshold a snapshot cannot store is a 400.
func TestHTTPCreateConfigCompat(t *testing.T) {
	_, ts := newTestServer(t)
	var info api.SynopsisInfo
	resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses", map[string]any{
		"name": "reuse", "xml": fixtures.PaperFigure2, "config": map[string]any{"reuseEPT": true},
	}, &info)
	if resp.StatusCode != http.StatusCreated || info.Name != "reuse" {
		t.Fatalf("create with reuseEPT: status %d, info %+v", resp.StatusCode, info)
	}
	var out api.EstimateResponse
	if resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/reuse/estimate",
		api.EstimateRequest{Queries: []string{"/a/c/s"}}, &out); resp.StatusCode != http.StatusOK || out.Results[0].Estimate != 5 {
		t.Fatalf("estimate: status %d, %+v", resp.StatusCode, out.Results)
	}
	var apiErr api.ErrorResponse
	resp = doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses", map[string]any{
		"name": "huge", "xml": fixtures.PaperFigure2, "config": map[string]any{"cardThreshold": 3e9},
	}, &apiErr)
	if resp.StatusCode != http.StatusBadRequest || apiErr.Err == nil || apiErr.Err.Code != api.CodeBadRequest {
		t.Fatalf("create with cardThreshold 3e9: status %d, err %+v", resp.StatusCode, apiErr.Err)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTTPCreateListGetDelete(t *testing.T) {
	_, ts := newTestServer(t)
	info := createFixture(t, ts, "fig2")
	if info.Name != "fig2" || info.KernelBytes <= 0 || info.Source != "xml upload" {
		t.Fatalf("create info = %+v", info)
	}

	// Duplicate name conflicts, with the typed conflict code.
	var apiErr api.ErrorResponse
	resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses",
		api.CreateRequest{Name: "fig2", XML: fixtures.PaperFigure2}, &apiErr)
	if resp.StatusCode != http.StatusConflict || apiErr.Err == nil || apiErr.Err.Code != api.CodeConflict {
		t.Fatalf("duplicate create: status %d, err %+v", resp.StatusCode, apiErr.Err)
	}

	// Bad requests: no source, two sources, unknown field, bad XML.
	for _, req := range []api.CreateRequest{
		{Name: "x"},
		{Name: "x", XML: "<a/>", Dataset: "xmark"},
		{Name: "x", XML: "<a><unclosed>"},
	} {
		if resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses", req, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("create %+v: status %d, want 400", req, resp.StatusCode)
		}
	}

	// Kernel-only config is honored.
	var bare api.SynopsisInfo
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses",
		api.CreateRequest{Name: "bare", XML: fixtures.PaperFigure2, Config: &api.SynopsisConfig{KernelOnly: true}}, &bare)
	if bare.HETBytes != 0 || bare.HETTotal != 0 {
		t.Fatalf("kernel-only synopsis has HET: %+v", bare)
	}

	// File sources are disabled without a configured data dir, and confined
	// to it when one is set.
	if resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses",
		api.CreateRequest{Name: "leak", XMLFile: "/etc/hostname"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("xmlFile without data dir: status %d, want 400", resp.StatusCode)
	}
	dataDir := t.TempDir()
	if err := os.WriteFile(dataDir+"/doc.xml", []byte(fixtures.PaperFigure2), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(ds.Handler())
	defer dts.Close()
	if resp := doJSON(t, dts.Client(), "POST", dts.URL+"/v1/synopses",
		api.CreateRequest{Name: "fromfile", XMLFile: "doc.xml"}, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("xmlFile inside data dir: status %d, want 201", resp.StatusCode)
	}
	var escErr api.ErrorResponse
	if resp := doJSON(t, dts.Client(), "POST", dts.URL+"/v1/synopses",
		api.CreateRequest{Name: "esc", XMLFile: "../../../etc/hostname"}, &escErr); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("path escape: status %d (%+v), want 400", resp.StatusCode, escErr.Err)
	}

	// Dataset generation source.
	var gen api.SynopsisInfo
	resp = doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses",
		api.CreateRequest{Name: "gen", Dataset: "xmark", Factor: 0.001, Seed: 7}, &gen)
	if resp.StatusCode != http.StatusCreated || gen.KernelBytes <= 0 {
		t.Fatalf("dataset create: status %d info %+v", resp.StatusCode, gen)
	}

	var list []api.SynopsisInfo
	doJSON(t, ts.Client(), "GET", ts.URL+"/v1/synopses", nil, &list)
	if len(list) != 3 || list[0].Name != "bare" || list[1].Name != "fig2" || list[2].Name != "gen" {
		t.Fatalf("list = %+v", list)
	}

	var got api.SynopsisInfo
	doJSON(t, ts.Client(), "GET", ts.URL+"/v1/synopses/fig2", nil, &got)
	if got.Name != "fig2" {
		t.Fatalf("get = %+v", got)
	}

	if resp := doJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/synopses/fig2", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/synopses/fig2", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/synopses/fig2", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d", resp.StatusCode)
	}
}

func TestHTTPEstimateSingleBatchStreaming(t *testing.T) {
	_, ts := newTestServer(t)
	createFixture(t, ts, "fig2")

	var one api.EstimateResponse
	resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate",
		api.EstimateRequest{Query: "/a/c/s"}, &one)
	if resp.StatusCode != http.StatusOK || len(one.Results) != 1 {
		t.Fatalf("single estimate: status %d resp %+v", resp.StatusCode, one)
	}
	if one.Results[0].Cached || one.Results[0].Estimate <= 0 {
		t.Fatalf("first estimate = %+v", one.Results[0])
	}

	// Batch with a parse error in the middle: order preserved, per-item error.
	var batch api.EstimateResponse
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate",
		api.EstimateRequest{Queries: []string{"/a/c/s", "not a query ???", "//s//p"}}, &batch)
	if len(batch.Results) != 3 {
		t.Fatalf("batch results: %+v", batch.Results)
	}
	if !batch.Results[0].Cached || batch.Results[0].Estimate != one.Results[0].Estimate {
		t.Fatalf("batch[0] should be the cached single result: %+v", batch.Results[0])
	}
	if batch.Results[1].Error == nil {
		t.Fatalf("batch[1] should carry a parse error: %+v", batch.Results[1])
	}
	if batch.Results[2].Error != nil || batch.Results[2].Estimate <= 0 {
		t.Fatalf("batch[2] = %+v", batch.Results[2])
	}

	// The retired streaming flag is accepted and ignored: the batch above,
	// resent with and without it, gets the same items, from the same cache
	// entries.
	req := api.EstimateRequest{Queries: []string{"/a/c/s", "not a query ???", "//s//p"}}
	var plain, flagged api.EstimateResponse
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate", req, &plain)
	req.Streaming = true
	if resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate", req, &flagged); resp.StatusCode != http.StatusOK {
		t.Fatalf("flagged batch: status %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(flagged, plain) || !flagged.Results[2].Cached {
		t.Fatalf("flagged batch = %+v, want the cached unflagged batch %+v", flagged.Results, plain.Results)
	}

	// A parse failure whose query text contains "not found" is still a 400:
	// statuses come from typed errors, not message matching.
	if resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/feedback",
		api.FeedbackRequest{Query: "//a not found (", Actual: 1}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error resembling not-found: status %d, want 400", resp.StatusCode)
	}

	// Unknown synopsis and empty request.
	if resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/nope/estimate",
		api.EstimateRequest{Query: "/a"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("estimate on missing synopsis: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate",
		api.EstimateRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty estimate request: status %d", resp.StatusCode)
	}
}

func TestHTTPFeedbackAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	createFixture(t, ts, "fig2")
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	const q = "/a/c/s/s/t"
	count, err := doc.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-computation already stored the exact count; feed back another
	// one, as after the document changed.
	actual := float64(count + 3)
	feedback := func() {
		t.Helper()
		resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/feedback",
			api.FeedbackRequest{Query: q, Actual: actual}, nil)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("feedback: status %d", resp.StatusCode)
		}
	}

	// Warm the cache, then feed back a cardinality that changes the estimate.
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate", api.EstimateRequest{Query: q}, nil)
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate", api.EstimateRequest{Query: q}, nil)
	feedback()

	var after api.EstimateResponse
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate", api.EstimateRequest{Query: q}, &after)
	if after.Results[0].Cached {
		t.Fatal("feedback did not invalidate the cache")
	}
	if after.Results[0].Estimate != actual {
		t.Fatalf("post-feedback estimate = %v, want %v", after.Results[0].Estimate, actual)
	}

	var st api.Stats
	doJSON(t, ts.Client(), "GET", ts.URL+"/v1/stats", nil, &st)
	if len(st.Synopses) != 1 {
		t.Fatalf("stats synopses = %+v", st.Synopses)
	}
	in := st.Synopses[0]
	if in.KernelBytes <= 0 || in.HETBytes < 0 || in.Feedbacks != 1 || in.Accuracy.N != 1 {
		t.Fatalf("synopsis stats = %+v", in)
	}
	if st.Cache.Hits < 1 || st.Cache.Misses < 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if st.TotalBytes < in.KernelBytes {
		t.Fatalf("total bytes %d < kernel %d", st.TotalBytes, in.KernelBytes)
	}

	// The same value again changes nothing an estimate reads: the cached
	// estimate stays valid.
	feedback()
	var again api.EstimateResponse
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate", api.EstimateRequest{Query: q}, &again)
	if !again.Results[0].Cached || again.Results[0].Estimate != actual {
		t.Fatalf("estimate after confirming feedback = %+v, want the cached %v", again.Results[0], actual)
	}
}

func TestHTTPSubtree(t *testing.T) {
	_, ts := newTestServer(t)
	var info api.SynopsisInfo
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses",
		api.CreateRequest{Name: "fig2", XML: fixtures.PaperFigure2, Config: &api.SynopsisConfig{KernelOnly: true}}, &info)

	var before api.EstimateResponse
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate", api.EstimateRequest{Query: "/a/u"}, &before)
	resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/subtree",
		api.SubtreeRequest{Op: "add", Context: []string{"a"}, XML: "<u/>"}, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("subtree add: status %d", resp.StatusCode)
	}
	var after api.EstimateResponse
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate", api.EstimateRequest{Query: "/a/u"}, &after)
	if after.Results[0].Estimate != before.Results[0].Estimate+1 {
		t.Fatalf("estimate after add = %v, want %v", after.Results[0].Estimate, before.Results[0].Estimate+1)
	}

	if resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/subtree",
		api.SubtreeRequest{Op: "frobnicate"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op: status %d", resp.StatusCode)
	}
}

// TestHTTPSnapshotRoundtrip persists a tuned synopsis through the HTTP
// snapshot endpoints and proves the restored copy estimates identically.
func TestHTTPSnapshotRoundtrip(t *testing.T) {
	_, ts := newTestServer(t)
	createFixture(t, ts, "orig")
	queries := []string{"/a/c/s", "/a/c/s/s/t", "//s//p", "/a/c/s[p]/t", "//s[t]"}

	// Tune it so the snapshot carries feedback-learned HET state too.
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/orig/feedback",
		api.FeedbackRequest{Query: "/a/c/s", Actual: 5}, nil)

	resp, err := ts.Client().Get(ts.URL + "/v1/synopses/orig/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot get: status %d err %v", resp.StatusCode, err)
	}

	req, err := http.NewRequest("PUT", ts.URL+"/v1/synopses/copy/snapshot", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusCreated {
		t.Fatalf("snapshot put: status %d", putResp.StatusCode)
	}

	var want, got api.EstimateResponse
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/orig/estimate", api.EstimateRequest{Queries: queries}, &want)
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/copy/estimate", api.EstimateRequest{Queries: queries}, &got)
	for i := range queries {
		if want.Results[i].Estimate != got.Results[i].Estimate {
			t.Errorf("%s: original %v, restored %v", queries[i], want.Results[i].Estimate, got.Results[i].Estimate)
		}
	}

	// Garbage snapshot is rejected.
	req, _ = http.NewRequest("PUT", ts.URL+"/v1/synopses/bad/snapshot", strings.NewReader("not a synopsis"))
	badResp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage snapshot: status %d", badResp.StatusCode)
	}
}

// TestHTTPSnapshotHugeCountRejected: a 23-byte snapshot whose HET header
// claims 2^28 entries is a bad request that allocates for what it holds,
// not for what it claims, and the daemon keeps serving. The allocation is
// the process-wide TotalAlloc across one upload, so the least of three
// uploads is judged: a goroutine another test left running can allocate
// during one of them, while a decoder that trusts the count allocates in
// every one.
func TestHTTPSnapshotHugeCountRejected(t *testing.T) {
	_, ts := newTestServer(t)
	createFixture(t, ts, "fig2")
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, err := http.NewRequest("PUT", ts.URL+"/v1/synopses/huge/snapshot", bytes.NewReader(fixtures.SnapshotHugeHETCount))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body api.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if err != nil || resp.StatusCode != http.StatusBadRequest || body.Err == nil || body.Err.Code != api.CodeBadRequest {
			t.Fatalf("PUT of a %d-byte hostile snapshot: status %d, body %+v, err %v", len(fixtures.SnapshotHugeHETCount), resp.StatusCode, body.Err, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 1<<20 {
		t.Fatalf("a %d-byte snapshot upload allocated %d bytes", len(fixtures.SnapshotHugeHETCount), least)
	}
	var out api.EstimateResponse
	if resp := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate",
		api.EstimateRequest{Queries: []string{"/a/c/s"}}, &out); resp.StatusCode != http.StatusOK || out.Results[0].Estimate != 5 {
		t.Fatalf("estimate after the rejected upload: status %d, %+v", resp.StatusCode, out.Results)
	}
}

// TestHTTPConcurrentClients exercises the full stack under parallel HTTP
// traffic mixing reads and writes (meaningful under -race).
func TestHTTPConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t)
	createFixture(t, ts, "fig2")
	queries := []string{"/a/c/s", "/a/c/s/s/t", "//s//p", "//s[t]"}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch g % 3 {
				case 0:
					doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/estimate",
						api.EstimateRequest{Queries: queries}, nil)
				case 1:
					doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fig2/feedback",
						api.FeedbackRequest{Query: "/a/c/s", Actual: 5}, nil)
				case 2:
					doJSON(t, ts.Client(), "GET", ts.URL+"/v1/stats", nil, nil)
				}
			}
		}(g)
	}
	wg.Wait()

	var st api.Stats
	doJSON(t, ts.Client(), "GET", ts.URL+"/v1/stats", nil, &st)
	if st.Synopses[0].Feedbacks != 50 {
		t.Fatalf("feedbacks = %d, want 50", st.Synopses[0].Feedbacks)
	}
}

func TestHTTPPreloadAndServe(t *testing.T) {
	// Build a synopsis file the way `xseed build` would, then preload it.
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := syn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	synPath := dir + "/fig2.xsd"
	xmlPath := dir + "/fig2.xml"
	if err := os.WriteFile(synPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(xmlPath, []byte(fixtures.PaperFigure2), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t)
	if err := Preload(s.Registry(), []string{
		fmt.Sprintf("fromsyn=%s", synPath),
		fmt.Sprintf("fromxml=%s", xmlPath),
	}); err != nil {
		t.Fatal(err)
	}
	var want, got api.EstimateResponse
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fromsyn/estimate", api.EstimateRequest{Query: "/a/c/s"}, &want)
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/synopses/fromxml/estimate", api.EstimateRequest{Query: "/a/c/s"}, &got)
	if want.Results[0].Estimate != got.Results[0].Estimate {
		t.Fatalf("preloaded synopsis (%v) and XML (%v) disagree", want.Results[0].Estimate, got.Results[0].Estimate)
	}
}
