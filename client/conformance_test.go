package client

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/fixtures"
	"xseed/internal/server"
	"xseed/internal/xpath"
)

// transportTarget is one SDK backend under conformance test: a way to bind
// any synopsis name as an xseed.Estimator, plus a barrier that surfaces
// deferred feedback errors (a no-op for transports whose Feedback is
// synchronous).
type transportTarget struct {
	bind  func(name string) xseed.Estimator
	flush func(ctx context.Context) error
}

// transports mounts one xseedd-equivalent backend per wire protocol, each
// preloaded with "fig2". Every conformance test runs against all of them:
// the HTTP JSON API and the xtp binary protocol must be indistinguishable
// through the Estimator interface.
func transports(t *testing.T) map[string]transportTarget {
	t.Helper()

	// HTTP: a full server.Server behind httptest.
	s, err := server.New(server.Config{CacheCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	hc, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Create(context.Background(), api.CreateRequest{Name: "fig2", XML: fixtures.PaperFigure2}); err != nil {
		t.Fatal(err)
	}

	// xtp: the binary listener over an identically-loaded registry.
	_, addr := newXTPBackend(t, nil)
	xc, err := DialXTP(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { xc.Close() })

	return map[string]transportTarget{
		"http": {
			bind:  func(name string) xseed.Estimator { return hc.Synopsis(name) },
			flush: func(context.Context) error { return nil },
		},
		"xtp": {
			bind:  func(name string) xseed.Estimator { return xc.Synopsis(name) },
			flush: xc.Flush,
		},
	}
}

// TestConformanceTypedErrorParity: a whole-call failure (unknown synopsis)
// is the same typed *api.Error on every transport.
func TestConformanceTypedErrorParity(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			_, err := tr.bind("nope").EstimateBatch(context.Background(), []string{"/a"})
			var apiErr *api.Error
			if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
				t.Fatalf("unknown-synopsis error = %v, want typed %s", err, api.CodeNotFound)
			}
		})
	}
}

// TestConformanceParseOffsetSurvival: a bad query's byte offset and token
// survive every transport encoding, byte-identical to the embedded parser.
func TestConformanceParseOffsetSurvival(t *testing.T) {
	const bogus = "/a/c[s]trailing garbage"
	_, perr := xpath.Parse(bogus)
	pe, ok := perr.(*xpath.ParseError)
	if !ok {
		t.Fatalf("fixture query parsed; want error, got %T", perr)
	}

	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			res, err := tr.bind("fig2").EstimateBatch(context.Background(), []string{bogus})
			if err != nil {
				t.Fatal(err)
			}
			var apiErr *api.Error
			if !errors.As(res[0].Err, &apiErr) || apiErr.Code != api.CodeParseError {
				t.Fatalf("bad query error = %v", res[0].Err)
			}
			d, ok := apiErr.ParseDetail()
			if !ok {
				t.Fatalf("no parse detail on %+v", apiErr)
			}
			if d.Offset != pe.Pos {
				t.Errorf("offset over %s = %d, embedded parser reports %d", name, d.Offset, pe.Pos)
			}
			if d.Token == "" {
				t.Error("offending token lost in transit")
			}
		})
	}
}

// TestConformanceMidBatchPartialSuccess: one rotten query never spoils the
// batch — results stay positional, errors stay per-item.
func TestConformanceMidBatchPartialSuccess(t *testing.T) {
	queries := []string{"/a/c/s", "//s[@", "//s//p"}
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			res, err := tr.bind("fig2").EstimateBatch(context.Background(), queries)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(queries) {
				t.Fatalf("results = %d, want %d", len(res), len(queries))
			}
			if res[0].Err != nil || res[0].Estimate <= 0 {
				t.Errorf("res[0] = %+v, want success", res[0])
			}
			var apiErr *api.Error
			if !errors.As(res[1].Err, &apiErr) || apiErr.Code != api.CodeParseError {
				t.Errorf("res[1].Err = %v, want %s", res[1].Err, api.CodeParseError)
			}
			if res[2].Err != nil || res[2].Estimate <= 0 {
				t.Errorf("res[2] = %+v, want success", res[2])
			}
		})
	}
}

// TestConformanceCancellation: a canceled context returns context.Canceled
// and leaves the client usable for the next call on every transport.
func TestConformanceCancellation(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			est := tr.bind("fig2")
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := est.EstimateBatch(ctx, []string{"/a/c/s"}); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled batch = %v, want context.Canceled", err)
			}
			res, err := est.EstimateBatch(context.Background(), []string{"/a/c/s"})
			if err != nil || len(res) != 1 || res[0].Err != nil {
				t.Fatalf("batch after cancel = %+v, %v", res, err)
			}
		})
	}
}

// TestConformanceFeedbackErrors: feedback failures carry the same typed
// code everywhere — synchronously on HTTP, via the Flush barrier on xtp.
func TestConformanceFeedbackErrors(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			err := tr.bind("nope").Feedback(ctx, "/a", 1)
			if err == nil {
				err = tr.flush(ctx)
			}
			var apiErr *api.Error
			if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
				t.Fatalf("feedback to unknown synopsis = %v, want %s", err, api.CodeNotFound)
			}

			// And the success path leaves no residue behind the barrier.
			if err := tr.bind("fig2").Feedback(ctx, "/a/c/s", 2); err != nil {
				t.Fatal(err)
			}
			if err := tr.flush(ctx); err != nil {
				t.Fatalf("flush after good feedback = %v", err)
			}
		})
	}
}

// TestConformanceFeedbackBatchPartialSuccess: batch feedback keeps the
// batch-estimate contract on every transport — one malformed query gets a
// positional typed error (parse detail intact) while its neighbors apply,
// and a whole-call failure (unknown synopsis) is the typed not_found.
func TestConformanceFeedbackBatchPartialSuccess(t *testing.T) {
	items := []xseed.FeedbackObs{
		{Query: "/a/c/s", Actual: 3},
		{Query: "//s[@", Actual: 1},
		{Query: "//s//p", Actual: 2},
	}
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			errs, err := tr.bind("fig2").FeedbackBatch(ctx, items)
			if err != nil {
				t.Fatal(err)
			}
			if len(errs) != len(items) {
				t.Fatalf("results = %d, want %d", len(errs), len(items))
			}
			if errs[0] != nil || errs[2] != nil {
				t.Errorf("good items carry errors: %v, %v", errs[0], errs[2])
			}
			var apiErr *api.Error
			if !errors.As(errs[1], &apiErr) || apiErr.Code != api.CodeParseError {
				t.Fatalf("malformed item = %v, want typed %s", errs[1], api.CodeParseError)
			}
			if _, ok := apiErr.ParseDetail(); !ok {
				t.Errorf("parse detail lost in transit: %+v", apiErr)
			}

			// Whole-call failure: unknown synopsis fails the batch wholesale.
			if _, err := tr.bind("nope").FeedbackBatch(ctx, items); !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
				t.Fatalf("batch to unknown synopsis = %v, want typed %s", err, api.CodeNotFound)
			}
		})
	}
}

// tenantedBackends mounts one multi-tenant server — tenant "acme" holds a
// valid token, tenant "throttled" a rate limit its first request already
// exceeds — behind both transports, returning the HTTP base URL and the
// xtp address. Tenancy conformance tests dial these with varying tokens.
func tenantedBackends(t *testing.T) (httpURL, xtpAddr string) {
	t.Helper()
	s, err := server.New(server.Config{CacheCapacity: 1024, Tenants: []server.TenantConfig{
		{ID: "acme", Token: "acme-tok"},
		{ID: "throttled", Token: "throttled-tok", RatePerSec: 0.0001},
	}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { s.Close() })

	x := server.NewXTP(s.Registry(), server.XTPOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go x.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		x.Shutdown(ctx)
	})
	return hs.URL, ln.Addr().String()
}

// TestConformanceUnauthorizedParity: an unknown bearer token is the same
// typed unauthorized error on every transport — an HTTP 401 body and an
// xtp Error frame decode to the identical *api.Error code, and neither
// transport degrades to unauthenticated operation.
func TestConformanceUnauthorizedParity(t *testing.T) {
	httpURL, xtpAddr := tenantedBackends(t)

	hc, err := New(httpURL, WithToken("wrong-tok"))
	if err != nil {
		t.Fatal(err)
	}
	_, herr := hc.List(context.Background())
	var apiErr *api.Error
	if !errors.As(herr, &apiErr) || apiErr.Code != api.CodeUnauthorized {
		t.Fatalf("http with bad token = %v, want typed %s", herr, api.CodeUnauthorized)
	}

	// xtp authenticates at dial; a bad token is a dial failure.
	if _, xerr := DialXTP(xtpAddr, WithXTPToken("wrong-tok")); !errors.As(xerr, &apiErr) || apiErr.Code != api.CodeUnauthorized {
		t.Fatalf("xtp dial with bad token = %v, want typed %s", xerr, api.CodeUnauthorized)
	}

	// The same tokens that fail above succeed when valid: parity is about
	// the error, not a broken fixture.
	if _, err := New(httpURL, WithToken("acme-tok")); err != nil {
		t.Fatal(err)
	}
	xc, err := DialXTP(xtpAddr, WithXTPToken("acme-tok"))
	if err != nil {
		t.Fatalf("xtp dial with valid token = %v", err)
	}
	xc.Close()
}

// TestConformanceQuotaParity: a request over the tenant's rate limit is
// the same typed quota_exceeded error on every transport (HTTP 429, xtp
// Error frame), and on xtp the rejection is per-request — the connection
// survives it, unlike the terminal unauthorized.
func TestConformanceQuotaParity(t *testing.T) {
	httpURL, xtpAddr := tenantedBackends(t)
	ctx := context.Background()

	hc, err := New(httpURL, WithToken("throttled-tok"))
	if err != nil {
		t.Fatal(err)
	}
	_, herr := hc.Estimate(ctx, "fig2", api.EstimateRequest{Queries: []string{"/a"}})
	var apiErr *api.Error
	if !errors.As(herr, &apiErr) || apiErr.Code != api.CodeQuotaExceeded {
		t.Fatalf("http over rate limit = %v, want typed %s", herr, api.CodeQuotaExceeded)
	}

	xc, err := DialXTP(xtpAddr, WithXTPToken("throttled-tok"))
	if err != nil {
		t.Fatal(err)
	}
	defer xc.Close()
	for i := 0; i < 2; i++ { // twice: the rejection must not kill the connection
		_, xerr := xc.Synopsis("fig2").EstimateBatch(ctx, []string{"/a"})
		if !errors.As(xerr, &apiErr) || apiErr.Code != api.CodeQuotaExceeded {
			t.Fatalf("xtp over rate limit (call %d) = %v, want typed %s", i, xerr, api.CodeQuotaExceeded)
		}
	}
	if err := xc.Ping(ctx); err != nil {
		t.Fatalf("ping after quota rejection = %v, want live connection", err)
	}
}

// TestConformanceFeedbackBatchAuthAndQuotaParity: batch feedback meets the
// tenancy taxonomy identically on both transports. Over the rate limit the
// whole batch is the typed quota_exceeded (charged as N events, rejected as
// one unit) and the xtp connection survives; a bad token is the typed
// unauthorized — an HTTP 401 per call, a terminal dial failure on xtp.
func TestConformanceFeedbackBatchAuthAndQuotaParity(t *testing.T) {
	httpURL, xtpAddr := tenantedBackends(t)
	ctx := context.Background()
	items := []xseed.FeedbackObs{{Query: "/a", Actual: 1}, {Query: "/b", Actual: 2}}
	var apiErr *api.Error

	// Quota: the throttled tenant's very first batch is over its limit.
	hc, err := New(httpURL, WithToken("throttled-tok"))
	if err != nil {
		t.Fatal(err)
	}
	if _, herr := hc.Synopsis("fig2").FeedbackBatch(ctx, items); !errors.As(herr, &apiErr) || apiErr.Code != api.CodeQuotaExceeded {
		t.Fatalf("http batch over rate limit = %v, want typed %s", herr, api.CodeQuotaExceeded)
	}
	xc, err := DialXTP(xtpAddr, WithXTPToken("throttled-tok"))
	if err != nil {
		t.Fatal(err)
	}
	defer xc.Close()
	if _, xerr := xc.Synopsis("fig2").FeedbackBatch(ctx, items); !errors.As(xerr, &apiErr) || apiErr.Code != api.CodeQuotaExceeded {
		t.Fatalf("xtp batch over rate limit = %v, want typed %s", xerr, api.CodeQuotaExceeded)
	}
	if err := xc.Ping(ctx); err != nil {
		t.Fatalf("ping after batch quota rejection = %v, want live connection", err)
	}

	// Unauthorized: same typed code; xtp surfaces it at dial, so a bad-token
	// connection never exists to carry a batch at all.
	hb, err := New(httpURL, WithToken("wrong-tok"))
	if err != nil {
		t.Fatal(err)
	}
	if _, herr := hb.Synopsis("fig2").FeedbackBatch(ctx, items); !errors.As(herr, &apiErr) || apiErr.Code != api.CodeUnauthorized {
		t.Fatalf("http batch with bad token = %v, want typed %s", herr, api.CodeUnauthorized)
	}
	if _, xerr := DialXTP(xtpAddr, WithXTPToken("wrong-tok")); !errors.As(xerr, &apiErr) || apiErr.Code != api.CodeUnauthorized {
		t.Fatalf("xtp dial with bad token = %v, want typed %s", xerr, api.CodeUnauthorized)
	}
}

// TestConformanceEmptyInputParity: an empty estimate batch and an empty
// feedback query are the same whole-request bad_request on every
// transport — never an empty success, never a parse error.
func TestConformanceEmptyInputParity(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			est := tr.bind("fig2")
			var apiErr *api.Error
			if res, err := est.EstimateBatch(ctx, []string{}); !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
				t.Fatalf("empty batch = %v, %v, want typed %s", res, err, api.CodeBadRequest)
			}
			err := est.Feedback(ctx, "", 1)
			if err == nil {
				err = tr.flush(ctx)
			}
			if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
				t.Fatalf("empty feedback query = %v, want typed %s", err, api.CodeBadRequest)
			}
		})
	}
}
