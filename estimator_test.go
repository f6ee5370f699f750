package xseed

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"xseed/api"
	"xseed/internal/fixtures"
)

const estimatorTestXML = "<a><c><s><t/><p/></s><s><s><t/></s></s></c><c><s><t/></s></c></a>"

func TestLocalEstimatorBatchAndFeedback(t *testing.T) {
	doc, err := ParseXMLString(estimatorTestXML)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := NewLocalEstimator(syn)
	ctx := context.Background()

	res, err := est.EstimateBatch(ctx, []string{"/a/c/s", "/a/c[s]???", "//s//t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Err != nil || res[0].Estimate <= 0 {
		t.Errorf("res[0] = %+v", res[0])
	}
	var apiErr *api.Error
	if !errors.As(res[1].Err, &apiErr) || apiErr.Code != api.CodeParseError {
		t.Errorf("res[1].Err = %v, want typed parse_error", res[1].Err)
	}
	if d, ok := apiErr.ParseDetail(); !ok || d.Offset <= 0 {
		t.Errorf("parse detail = %+v ok=%v", d, ok)
	}
	if res[2].Err != nil || res[2].Estimate <= 0 {
		t.Errorf("res[2] = %+v", res[2])
	}

	// Feedback through the interface tunes the synopsis like direct calls.
	actual, err := doc.Count("/a/c/s")
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Feedback(ctx, "/a/c/s", float64(actual)); err != nil {
		t.Fatal(err)
	}
	got, err := Estimate(ctx, est, "/a/c/s")
	if err != nil {
		t.Fatal(err)
	}
	if got != float64(actual) {
		t.Errorf("post-feedback estimate = %v, want %d", got, actual)
	}

	// The single-query helper surfaces per-query errors as call errors.
	if _, err := Estimate(ctx, est, "broken ["); err == nil {
		t.Error("Estimate of a broken query succeeded")
	}
}

// TestLocalEstimatorEchoesOverCapExcerpt: the embedded backend echoes a
// failed query as the served one does (api.EchoQuery): whole within the
// byte cap, by its first bytes over it.
func TestLocalEstimatorEchoesOverCapExcerpt(t *testing.T) {
	doc, err := ParseXMLString(estimatorTestXML)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("/a", 4096)
	bad := "/a/c[s]???"
	res, err := NewLocalEstimator(syn).EstimateBatch(context.Background(), []string{long, bad})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[0].Query != long[:api.MaxQueryEcho] {
		t.Errorf("over-cap item = %d-byte query, err %v; want its first %d bytes and an error", len(res[0].Query), res[0].Err, api.MaxQueryEcho)
	}
	if res[1].Err == nil || res[1].Query != bad {
		t.Errorf("malformed item = %q, err %v; want %q and an error", res[1].Query, res[1].Err, bad)
	}
}

func TestLocalEstimatorCancellation(t *testing.T) {
	doc, err := ParseXMLString(estimatorTestXML)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := NewLocalEstimator(syn)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.EstimateBatch(ctx, []string{"/a/c/s"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch = %v, want context.Canceled", err)
	}
	if err := est.Feedback(ctx, "/a/c/s", 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled feedback = %v, want context.Canceled", err)
	}
}

// TestLocalEstimatorRejectsBadActual: the embedded backend refuses an
// actual count that is NaN, infinite or negative as the served backends
// do (api.CheckActual): a bad_request alone, through LocalEstimator and
// Synopsis alike, and as one item of a batch whose other items apply. The
// synopsis never serves the refused count.
func TestLocalEstimatorRejectsBadActual(t *testing.T) {
	doc, err := ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := syn.Estimate("/a/c/s"); err != nil || got != 5 {
		t.Fatalf("/a/c/s estimates %v, %v before feedback; want 5", got, err)
	}
	est := NewLocalEstimator(syn)
	ctx := context.Background()
	isBadRequest := func(err error) bool {
		var ae *api.Error
		return errors.As(err, &ae) && ae.Code == api.CodeBadRequest
	}
	for _, actual := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		if err := est.Feedback(ctx, "/a/c/s", actual); !isBadRequest(err) {
			t.Errorf("LocalEstimator.Feedback of %v = %v, want a bad_request *api.Error", actual, err)
		}
		if err := syn.Feedback("/a/c/s", actual); !isBadRequest(err) {
			t.Errorf("Synopsis.Feedback of %v = %v, want a bad_request *api.Error", actual, err)
		}
		errs, err := est.FeedbackBatch(ctx, []FeedbackObs{
			{Query: "/a/c/p", Actual: 7}, {Query: "/a/c/s", Actual: actual}, {Query: "/a/t", Actual: 3},
		})
		if err != nil || len(errs) != 3 {
			t.Fatalf("batch with %v = %v, %v", actual, errs, err)
		}
		if errs[0] != nil || errs[2] != nil || !isBadRequest(errs[1]) {
			t.Fatalf("batch with %v: item errors %v, want only the middle one, a bad_request", actual, errs)
		}
	}
	for q, want := range map[string]float64{"/a/c/s": 5, "/a/c/p": 7, "/a/t": 3} {
		if got, err := syn.Estimate(q); err != nil || got != want {
			t.Errorf("%s estimates %v, %v; want %v", q, got, err, want)
		}
	}
}
