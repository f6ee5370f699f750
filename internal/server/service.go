package server

import (
	"context"

	"xseed/api"
	"xseed/internal/cluster"
)

// service is the one implementation of the operations xseedd serves over
// both transports. The HTTP handlers and the xtp read loop are codecs over
// it: they decode a request, make one call here, and encode the api result
// or the *api.Error. Admission — the name check, partition ownership, and
// the tenant's rate charge — happens here and nowhere else.
type service struct {
	reg *Registry
	cl  *cluster.Manager // nil off-cluster
}

// admit resolves name in t's namespace and admits one request for it, in
// the order every route and transport shares: a NUL in the name is a
// bad_request; a key another node owns is a typed moved error naming the
// owner, checked before the charge so a redirect costs no token; then cost
// tokens come out of t's rate bucket (0 charges nothing). It returns the
// qualified store key.
func (s *service) admit(t *Tenant, name string, cost int) (string, *api.Error) {
	key, aerr := synKey(t, name)
	if aerr != nil {
		return "", aerr
	}
	if s.cl != nil {
		// A ring not yet known (bootstrap) serves locally.
		if owner, epoch, known := s.cl.Owner(key); known && owner.ID != s.cl.Self() {
			return "", api.NewMovedError(name, "http://"+owner.HTTP, epoch)
		}
	}
	if !t.allowN(cost) {
		return "", api.Errorf(api.CodeQuotaExceeded, "tenant %q rate limit exceeded", t.ID())
	}
	return key, nil
}

// estimate admits one batch estimate against name, charged as one
// request, and probes the cache for it into b (Registry.probeBatch). The
// batch is answered when the cache held every query; otherwise the caller
// completes it with finishEstimate — HTTP at once, on its handler
// goroutine; xtp on a goroutine dispatched for it, so that the reader
// never parses or runs a plan.
func (s *service) estimate(ctx context.Context, b *estBatch, t *Tenant, name string, queries []string) *api.Error {
	if len(queries) == 0 {
		return api.Errorf(api.CodeBadRequest, "missing query or queries")
	}
	key, aerr := s.admit(t, name, 1)
	if aerr != nil {
		return aerr
	}
	if err := s.reg.probeBatch(ctx, b, key, queries); err != nil {
		return toAPIError(err)
	}
	return nil
}

// finishEstimate completes a batch estimate admitted and probed by
// estimate: one item per query, in request order, each an estimate or a
// per-query error.
func (s *service) finishEstimate(ctx context.Context, b *estBatch) ([]api.EstimateItem, *api.Error) {
	items, err := s.reg.finishBatch(ctx, b)
	if err != nil {
		return nil, toAPIError(err)
	}
	return items, nil
}

// feedback records one executed query's actual cardinality into name. The
// second result fails the request whole (an empty query, a refused
// admission); the first is the record's own outcome from the registry — an
// unknown synopsis, a parse failure, a persist failure — which xtp acks per
// record (docs/PROTOCOL.md §4.5).
func (s *service) feedback(t *Tenant, name, query string, actual float64) (outcome, aerr *api.Error) {
	if query == "" {
		return nil, api.Errorf(api.CodeBadRequest, "missing query")
	}
	key, aerr := s.admit(t, name, 1)
	if aerr != nil {
		return nil, aerr
	}
	if err := s.reg.Feedback(key, query, actual); err != nil {
		return toAPIError(err), nil
	}
	return nil, nil
}

// feedbackBatch records a batch of observations into name. The batch costs
// len(items) tokens, admitted or refused as one unit, so batching never
// outruns the rate limit. The result holds one error slot per item, in
// request order (nil = applied and durable).
func (s *service) feedbackBatch(t *Tenant, name string, items []api.FeedbackItem) ([]*api.Error, *api.Error) {
	if len(items) == 0 {
		return nil, api.Errorf(api.CodeBadRequest, "missing items")
	}
	key, aerr := s.admit(t, name, len(items))
	if aerr != nil {
		return nil, aerr
	}
	errs, err := s.reg.FeedbackBatch(key, items)
	if err != nil {
		return nil, toAPIError(err)
	}
	return errs, nil
}

// ring returns this node's view of the partition ring, JSON-encoded as
// api.Ring.
func (s *service) ring() ([]byte, *api.Error) {
	if s.cl == nil {
		return nil, api.Errorf(api.CodeConflict, "server is not part of a cluster (start with -cluster)")
	}
	data, ok := s.cl.RingJSON()
	if !ok {
		return nil, api.Errorf(api.CodeUnavailable, "ring not yet known")
	}
	return data, nil
}
