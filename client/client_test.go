package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/fixtures"
	"xseed/internal/server"
	"xseed/internal/xpath"
)

// newServerClient mounts a fresh in-memory xseedd on httptest and dials it.
func newServerClient(t testing.TB, opts ...Option) (*server.Server, *Client) {
	t.Helper()
	s, err := server.New(server.Config{CacheCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	c, err := New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestClientCreateEstimateFeedback(t *testing.T) {
	_, c := newServerClient(t)
	ctx := context.Background()

	info, err := c.Create(ctx, api.CreateRequest{Name: "fig2", XML: fixtures.PaperFigure2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "fig2" || info.KernelBytes <= 0 {
		t.Fatalf("create info = %+v", info)
	}

	// Duplicate create carries the typed conflict code.
	_, err = c.Create(ctx, api.CreateRequest{Name: "fig2", XML: fixtures.PaperFigure2})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeConflict {
		t.Fatalf("duplicate create error = %v", err)
	}

	// Estimator-interface batch against the bound synopsis.
	syn := c.Synopsis("fig2")
	res, err := syn.EstimateBatch(ctx, []string{"/a/c/s", "//s//p"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Err != nil || res[0].Estimate <= 0 || res[1].Estimate <= 0 {
		t.Fatalf("batch = %+v", res)
	}

	// Feedback tunes the synopsis; the next estimate is exact.
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := doc.Count("/a/c/s")
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Feedback(ctx, "/a/c/s", float64(actual)); err != nil {
		t.Fatal(err)
	}
	est, err := xseed.Estimate(ctx, syn, "/a/c/s")
	if err != nil {
		t.Fatal(err)
	}
	if est != float64(actual) {
		t.Fatalf("post-feedback estimate = %v, want %d", est, actual)
	}

	// Management surface: list, get, stats, delete, then typed not-found.
	if list, err := c.List(ctx); err != nil || len(list) != 1 {
		t.Fatalf("list = %+v, %v", list, err)
	}
	if _, err := c.Get(ctx, "fig2"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil || len(st.Synopses) != 1 || st.Synopses[0].Feedbacks != 1 {
		t.Fatalf("stats = %+v, %v", st, err)
	}
	if err := c.Delete(ctx, "fig2"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Get(ctx, "fig2")
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("get after delete = %v", err)
	}
}

// TestClientParseErrorOffsetRoundTrip is the satellite contract: a bad
// query's parse offset reaches the SDK caller structurally, identical to
// what the embedded parser reports.
func TestClientParseErrorOffsetRoundTrip(t *testing.T) {
	_, c := newServerClient(t)
	ctx := context.Background()
	if _, err := c.Create(ctx, api.CreateRequest{Name: "fig2", XML: fixtures.PaperFigure2}); err != nil {
		t.Fatal(err)
	}

	const bogus = "/a/c[s]trailing garbage"
	_, perr := xpath.Parse(bogus)
	pe, ok := perr.(*xpath.ParseError)
	if !ok {
		t.Fatalf("fixture query parsed; want error, got %T", perr)
	}

	res, err := c.Synopsis("fig2").EstimateBatch(ctx, []string{"/a/c/s", bogus})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Estimate <= 0 {
		t.Fatalf("good query = %+v", res[0])
	}
	var apiErr *api.Error
	if !errors.As(res[1].Err, &apiErr) || apiErr.Code != api.CodeParseError {
		t.Fatalf("bad query error = %v", res[1].Err)
	}
	d, ok := apiErr.ParseDetail()
	if !ok {
		t.Fatalf("no parse detail on %+v", apiErr)
	}
	if d.Offset != pe.Pos {
		t.Errorf("offset over the wire = %d, embedded parser reports %d", d.Offset, pe.Pos)
	}
	if d.Token == "" {
		t.Error("offending token lost in transit")
	}

	// The local adapter reports the identical typed error for the same
	// query: one error-handling path for both backends.
	doc, _ := xseed.ParseXMLString(fixtures.PaperFigure2)
	syn, _ := xseed.BuildSynopsis(doc, nil)
	lres, err := xseed.NewLocalEstimator(syn).EstimateBatch(ctx, []string{bogus})
	if err != nil {
		t.Fatal(err)
	}
	var lerr *api.Error
	if !errors.As(lres[0].Err, &lerr) || lerr.Code != api.CodeParseError {
		t.Fatalf("local adapter error = %v", lres[0].Err)
	}
	ld, _ := lerr.ParseDetail()
	if ld.Offset != d.Offset {
		t.Errorf("local offset %d != remote offset %d", ld.Offset, d.Offset)
	}
}

// TestClientCancellation is the acceptance contract: a canceled context
// returns context.Canceled from the SDK — never a hung call or an opaque
// transport error.
func TestClientCancellation(t *testing.T) {
	_, c := newServerClient(t)
	if _, err := c.Create(context.Background(), api.CreateRequest{Name: "fig2", XML: fixtures.PaperFigure2}); err != nil {
		t.Fatal(err)
	}

	// Pre-canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Synopsis("fig2").EstimateBatch(ctx, []string{"/a/c/s"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled batch = %v, want context.Canceled", err)
	}

	// A server that never answers: the deadline fires instead of hanging.
	hang := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-hang:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(hang)
	sc, err := New(slow.URL, WithSynopsis("x"))
	if err != nil {
		t.Fatal(err)
	}
	tctx, tcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer tcancel()
	start := time.Now()
	_, err = sc.EstimateBatch(tctx, []string{"/a"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung-server batch = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not abort the in-flight call")
	}
}

// TestClientRetry: idempotent calls, snapshot downloads among them, survive
// transient 503s; non-idempotent calls never retry.
func TestClientRetry(t *testing.T) {
	var gets, posts atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			if gets.Add(1) <= 2 {
				api.WriteError(w, api.Errorf(api.CodeUnavailable, "warming up"))
				return
			}
			w.Header().Set("Content-Type", "text/plain")
			w.Write([]byte("ok\n"))
		default:
			posts.Add(1)
			api.WriteError(w, api.Errorf(api.CodeUnavailable, "nope"))
		}
	}))
	defer backend.Close()

	c, err := New(backend.URL, WithRetry(3, time.Millisecond), WithSynopsis("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health with retries = %v", err)
	}
	if got := gets.Load(); got != 3 {
		t.Errorf("GET attempts = %d, want 3", got)
	}

	// A snapshot download rides the same loop and hands back the unread
	// body of the attempt that succeeds.
	gets.Store(0)
	rc, err := c.SnapshotGet(context.Background(), "x")
	if err != nil {
		t.Fatalf("snapshot get with retries = %v", err)
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(body) != "ok\n" {
		t.Fatalf("snapshot body = %q, %v; want %q", body, err, "ok\n")
	}
	if got := gets.Load(); got != 3 {
		t.Errorf("snapshot GET attempts = %d, want 3", got)
	}

	err = c.Feedback(context.Background(), "/a", 1)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnavailable {
		t.Fatalf("feedback error = %v", err)
	}
	if got := posts.Load(); got != 1 {
		t.Errorf("non-idempotent POST attempts = %d, want 1 (no retry)", got)
	}
}

func TestClientSnapshotRoundTrip(t *testing.T) {
	_, c := newServerClient(t)
	ctx := context.Background()
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if _, err := syn.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	info, err := c.SnapshotPut(ctx, "uploaded", &blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "uploaded" {
		t.Fatalf("snapshot put info = %+v", info)
	}

	// Download it back and prove the local rehydration estimates identically
	// to the served copy.
	rc, err := c.SnapshotGet(ctx, "uploaded")
	if err != nil {
		t.Fatal(err)
	}
	back, err := xseed.ReadSynopsis(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	local := xseed.NewLocalEstimator(back)
	remote := c.Synopsis("uploaded")
	for _, q := range []string{"/a/c/s", "//s//p", "/a/c/s[p]/t"} {
		le, err := xseed.Estimate(ctx, local, q)
		if err != nil {
			t.Fatal(err)
		}
		re, err := xseed.Estimate(ctx, remote, q)
		if err != nil {
			t.Fatal(err)
		}
		if le != re {
			t.Errorf("%s: local %v != remote %v", q, le, re)
		}
	}
}

// BenchmarkClientEstimateBatch measures the SDK's batch path end to end
// over HTTP loopback (100-query batches, warm server cache) — the number
// an optimizer embedding the client should budget against, wired into
// BENCH_ci.json.
func BenchmarkClientEstimateBatch(b *testing.B) {
	s, c := newServerClient(b)
	ctx := context.Background()
	if _, err := c.Create(ctx, api.CreateRequest{Name: "xmark", Dataset: "xmark", Factor: 0.005, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	_ = s
	queries := make([]string, 100)
	base := []string{"/site/open_auctions/open_auction/bidder", "//item[shipping]/location", "//person", "/site/regions//item"}
	for i := range queries {
		queries[i] = base[i%len(base)]
	}
	syn := c.Synopsis("xmark")
	if _, err := syn.EstimateBatch(ctx, queries); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := syn.EstimateBatch(ctx, queries)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(queries) {
			b.Fatalf("results = %d", len(res))
		}
	}
	b.ReportMetric(float64(len(queries)), "queries/op")
}
