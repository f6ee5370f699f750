package xseed

import (
	"sync/atomic"

	"xseed/internal/estimate"
	"xseed/internal/xpath"
)

// Snapshot is an immutable, versioned estimation view of a Synopsis: the
// kernel as of one mutation generation, the frozen label dictionary, the
// hyper-edge lookup view, and the expanded path tree (built lazily, once,
// under a singleflight). Estimating against a snapshot takes no locks and
// never observes a concurrent mutation — mutations publish a successor
// snapshot instead of changing this one.
//
// Pin a snapshot once per batch for a consistent view across its queries:
//
//	sn := syn.Snapshot()
//	for _, q := range queries {
//		est := sn.EstimateQuery(q)
//	}
//
// The version increases by exactly one per estimate-affecting mutation, so
// serving layers can tag cached results with it and let a concurrent
// mutation retire the whole scope by publishing the next version.
type Snapshot struct {
	ver uint64
	es  *estimate.Snapshot
}

// Snapshot returns the synopsis's current estimation snapshot. It is one
// atomic load; the result stays valid (and consistent) indefinitely.
func (s *Synopsis) Snapshot() *Snapshot { return s.snap.Load() }

// Version is the snapshot's mutation generation, starting at 1 for a
// freshly built or loaded synopsis.
func (sn *Snapshot) Version() uint64 { return sn.ver }

// EstimateQuery estimates a pre-parsed query against the snapshot.
func (sn *Snapshot) EstimateQuery(q *Query) float64 { return sn.es.Estimate(q.p) }

// Estimate parses and estimates against the snapshot.
func (sn *Snapshot) Estimate(query string) (float64, error) {
	q, err := ParseQuery(query)
	if err != nil {
		return 0, err
	}
	return sn.EstimateQuery(q), nil
}

// EPTStats reports the size of the snapshot's expanded path tree (building
// it if no estimate has yet).
func (sn *Snapshot) EPTStats() (nodes int, truncated bool) {
	st := sn.es.Stats()
	return st.Nodes, st.Truncated
}

// Compile compiles the query into a Plan against this snapshot's
// dictionary: label IDs resolved, hyper-edge pattern hashes precomputed,
// predicate shapes classified — once. Running the plan skips all of that
// per estimate, and the plan stays valid across later snapshots until a
// subtree update interns a new label (it then transparently recompiles on
// first use).
func (sn *Snapshot) Compile(q *Query) *Plan {
	p := &Plan{norm: q.String()}
	p.ep.Store(estimate.Compile(q.p, sn.es.Dict()))
	return p
}

// Plan is a compiled query: its normalized text and the label-resolved
// execution plan, and nothing else, because a Plan is what the serving
// layer caches per query so repeat queries skip parse + compile. Every
// estimate, embedded or served, runs one: the paper's Algorithm 3 over the
// snapshot's expanded path tree. Recompiling after the dictionary grew
// needs the parse tree, and re-parses the normalized text, which always
// parses back to the tree it was rendered from (see mustReparse). Plans
// are safe for concurrent Run calls.
type Plan struct {
	norm string
	ep   atomic.Pointer[estimate.Plan]
}

// String returns the normalized (parsed and re-rendered) query text.
func (p *Plan) String() string { return p.norm }

// CompatibleWith reports whether the compiled label resolution is current
// for sn; false after a subtree update interned new labels. Run handles the
// recompile itself — this exists for cache layers that want to refresh
// their stored plan.
func (p *Plan) CompatibleWith(sn *Snapshot) bool {
	return p.ep.Load().CompatibleWith(sn.es)
}

// plan returns a compiled form current for sn, recompiling (and caching the
// result) when the snapshot's dictionary outgrew the stored one.
func (p *Plan) plan(sn *Snapshot) *estimate.Plan {
	if ep := p.ep.Load(); ep.CompatibleWith(sn.es) {
		return ep
	}
	ep := estimate.Compile(mustReparse(p.norm), sn.es.Dict())
	p.ep.Store(ep)
	return ep
}

// mustReparse rebuilds a plan's parse tree from its normalized text. The
// text is the rendering of a parse tree, maybe one built from a document's
// labels past the caps on a client's query, and xpath.Reparse, which has no
// caps, takes every rendering back.
func mustReparse(norm string) *xpath.Path {
	q, err := xpath.Reparse(norm)
	if err != nil {
		panic(err)
	}
	return q
}

// Run estimates the compiled query against the snapshot.
func (p *Plan) Run(sn *Snapshot) float64 {
	return p.plan(sn).Run(sn.es)
}
