package xseed

import (
	"context"
	"fmt"

	"xseed/api"
)

// Result is the outcome of estimating one query of a batch through an
// Estimator: either an estimate (with provenance) or a per-query error —
// never both. Err, when set, is an *api.Error regardless of backend, so a
// parse failure's byte offset is recoverable the same way (via
// api.Error.ParseDetail) whether the estimate ran embedded or against a
// remote xseedd.
type Result struct {
	Query    string  // normalized query; api.EchoQuery of the input when it failed to parse
	Estimate float64 // estimated cardinality
	Cached   bool    // answered from a server-side estimate cache
	Err      error   // per-query failure (*api.Error), nil on success
}

// Estimator is the unified estimation surface a cost-based optimizer codes
// against: batch cardinality estimates plus execution feedback, with
// per-call context. Both the embedded backend (NewLocalEstimator around a
// *Synopsis) and the remote one (xseed/client.Client against a live
// xseedd) implement it, so callers switch between in-process and served
// synopses without touching estimation code.
//
// EstimateBatch returns one Result per query in request order; a query
// that fails to parse sets that Result's Err and never fails the batch
// (partial-success semantics, shared with POST /v1/synopses/{name}/estimate).
// A whole-call error means no estimates were produced — a canceled
// context, an unreachable server, an unknown synopsis.
//
// FeedbackBatch records many observations in one call with the same
// partial-success split: one error slot per item in request order (nil =
// absorbed and durable to the backend's configured discipline), and a
// whole-call error when none were recorded. Served backends coalesce a
// batch into one snapshot publication and one group-committed log flush,
// so it is the efficient way to report execution feedback in bulk.
type Estimator interface {
	EstimateBatch(ctx context.Context, queries []string) ([]Result, error)
	Feedback(ctx context.Context, query string, actual float64) error
	FeedbackBatch(ctx context.Context, items []FeedbackObs) ([]error, error)
}

// FeedbackObs is one observed (query, actual cardinality) pair of a
// feedback batch.
type FeedbackObs struct {
	Query  string
	Actual float64
}

// LocalEstimator adapts a *Synopsis to the Estimator interface.
//
// Concurrency follows the synopsis it wraps: EstimateBatch calls are
// lock-free and safe with each other and with any single mutator (each
// batch pins one estimation snapshot, so its queries see one consistent
// version even while Feedback runs); Feedback and other synopsis mutations
// must still be serialized with each other externally, exactly as for
// *Synopsis. The served registry (xseed/internal/server) does that locking
// for the remote backend.
type LocalEstimator struct {
	syn *Synopsis
}

// NewLocalEstimator wraps a synopsis as the embedded Estimator backend.
func NewLocalEstimator(s *Synopsis) *LocalEstimator {
	return &LocalEstimator{syn: s}
}

// EstimateBatch estimates the queries in order, honoring ctx between
// queries. Parse failures are per-query (typed *api.Error with the offset
// in the detail); cancellation fails the whole call.
func (l *LocalEstimator) EstimateBatch(ctx context.Context, queries []string) ([]Result, error) {
	out := make([]Result, len(queries))
	sn := l.syn.Snapshot() // one consistent version for the whole batch
	for i, raw := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q, err := ParseQuery(raw)
		if err != nil {
			out[i] = Result{Query: api.EchoQuery(raw), Err: api.WrapError(err, api.CodeBadRequest)}
			continue
		}
		out[i] = Result{Query: q.String(), Estimate: sn.EstimateQuery(q)}
	}
	return out, nil
}

// Feedback records an executed query's actual cardinality into the
// synopsis (self-tuning).
func (l *LocalEstimator) Feedback(ctx context.Context, query string, actual float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	q, err := ParseQuery(query)
	if err != nil {
		return api.WrapError(err, api.CodeBadRequest)
	}
	l.syn.FeedbackQuery(q, actual)
	return nil
}

// FeedbackBatch applies each observation in order with deferred snapshot
// publication and publishes at most one successor covering the batch (none
// when the batch changed nothing an estimate reads). Parse failures are
// per-item; cancellation fails the whole call.
func (l *LocalEstimator) FeedbackBatch(ctx context.Context, items []FeedbackObs) ([]error, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	errs := make([]error, len(items))
	applied := false
	for i, it := range items {
		q, err := ParseQuery(it.Query)
		if err != nil {
			errs[i] = api.WrapError(err, api.CodeBadRequest)
			continue
		}
		if _, _, ok := l.syn.FeedbackQueryDeltaDeferred(q, it.Actual); ok {
			applied = true
		}
	}
	if applied {
		l.syn.Publish()
	}
	return errs, nil
}

// Estimate is a single-query convenience over any Estimator: it returns
// the one estimate or its error (per-query or whole-call).
func Estimate(ctx context.Context, e Estimator, query string) (float64, error) {
	res, err := e.EstimateBatch(ctx, []string{query})
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		return 0, fmt.Errorf("xseed: estimator returned %d results for 1 query", len(res))
	}
	if res[0].Err != nil {
		return 0, res[0].Err
	}
	return res[0].Estimate, nil
}

var _ Estimator = (*LocalEstimator)(nil)
