// Package workload generates the query workloads of the paper's Section
// 6.1: all simple path (SP) queries of a document, and seeded random
// branching (BP) and complex (CP) queries with a configurable maximum
// number of predicates per step (1 for BP/CP, 2 for 2BP/2CP, 3 for
// 3BP/3CP). Queries are drawn from the document's path tree so node tests
// always name real paths, and an optional non-triviality filter keeps only
// queries with at least one actual result, as the paper's randomly
// generated workloads are "non-trivial".
package workload

import (
	"math/rand"

	"xseed/internal/nok"
	"xseed/internal/pathtree"
	"xseed/internal/xpath"
)

// Query is one workload entry with its ground-truth cardinality.
type Query struct {
	Path   *xpath.Path
	Class  xpath.Class
	Actual int64
}

// Options configure random workload generation.
type Options struct {
	// N is the number of queries to generate (the paper uses 1,000 per
	// class).
	N int

	// MaxPredsPerStep bounds predicates attached to one step (1 = BP/CP,
	// 2 = 2BP/2CP, 3 = 3BP/3CP). Zero means 1.
	MaxPredsPerStep int

	// Seed drives generation; workloads are deterministic for a fixed
	// seed.
	Seed int64

	// RequireNonEmpty retries (up to a bounded number of attempts) until
	// the query has at least one actual result.
	RequireNonEmpty bool

	// PredProb is the probability a step receives predicates (default
	// 0.45).
	PredProb float64

	// DescProb is the probability a CP step uses the // axis (default
	// 0.35); WildProb the probability of a * node test (default 0.1).
	DescProb float64
	WildProb float64
}

func (o Options) maxPreds() int {
	if o.MaxPredsPerStep <= 0 {
		return 1
	}
	return o.MaxPredsPerStep
}

func (o Options) predProb() float64 {
	if o.PredProb == 0 {
		return 0.45
	}
	return o.PredProb
}

func (o Options) descProb() float64 {
	if o.DescProb == 0 {
		return 0.35
	}
	return o.DescProb
}

func (o Options) wildProb() float64 {
	if o.WildProb == 0 {
		return 0.1
	}
	return o.WildProb
}

// AllSimplePaths returns every rooted simple path of the document as an SP
// query with its exact cardinality (from the path tree; no evaluation
// needed). max bounds the count (0 = all), taking paths in preorder.
func AllSimplePaths(pt *pathtree.Tree, max int) []Query {
	var out []Query
	pt.Walk(func(n *pathtree.Node) {
		if max > 0 && len(out) >= max {
			return
		}
		out = append(out, Query{Path: n.Query(pt.Dict()), Class: xpath.SimplePath, Actual: n.Card})
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Branching generates opt.N random branching path queries (child axes only,
// with predicates drawn from real sibling labels).
func Branching(pt *pathtree.Tree, ev *nok.Evaluator, opt Options) []Query {
	return generate(pt, ev, opt, false)
}

// Complex generates opt.N random complex path queries (descendant axes
// and/or wildcards, plus predicates).
func Complex(pt *pathtree.Tree, ev *nok.Evaluator, opt Options) []Query {
	return generate(pt, ev, opt, true)
}

func generate(pt *pathtree.Tree, ev *nok.Evaluator, opt Options, complex bool) []Query {
	rng := rand.New(rand.NewSource(opt.Seed))
	nodes := collectNodes(pt)
	if len(nodes) == 0 {
		return nil
	}
	var out []Query
	const maxAttemptsPerQuery = 64
	for len(out) < opt.N {
		var q *xpath.Path
		attempts := 0
		for {
			q = randomQuery(pt, rng, nodes, opt, complex)
			attempts++
			if q == nil {
				if attempts >= maxAttemptsPerQuery {
					break
				}
				continue
			}
			if complex && q.Classify() != xpath.ComplexPath {
				// Force at least one // or * so the class is honest.
				forceComplex(q, rng, opt)
			}
			if !opt.RequireNonEmpty || ev == nil {
				break
			}
			if ev.Count(q) > 0 || attempts >= maxAttemptsPerQuery {
				break
			}
		}
		if q == nil {
			break
		}
		actual := int64(0)
		if ev != nil {
			actual = ev.Count(q)
		}
		class := xpath.BranchingPath
		if complex {
			class = xpath.ComplexPath
		}
		out = append(out, Query{Path: q, Class: class, Actual: actual})
	}
	return out
}

// collectNodes gathers path tree nodes of depth >= 2 (so queries have at
// least two steps).
func collectNodes(pt *pathtree.Tree) []*pathtree.Node {
	var nodes []*pathtree.Node
	pt.Walk(func(n *pathtree.Node) {
		if n.Depth >= 2 {
			nodes = append(nodes, n)
		}
	})
	return nodes
}

// randomQuery builds a query whose main path follows root→target in the
// path tree, attaching sibling predicates, and (for complex queries)
// mutating axes and node tests.
func randomQuery(pt *pathtree.Tree, rng *rand.Rand, nodes []*pathtree.Node, opt Options, complex bool) *xpath.Path {
	target := nodes[rng.Intn(len(nodes))]
	chain := pathChain(target)
	q := &xpath.Path{}
	for i, node := range chain {
		st := xpath.Step{Axis: xpath.Child, Label: pt.Dict().Name(node.Label)}
		// Predicates: siblings of the next main-path node (children of this
		// node other than the continuation), only for interior steps.
		if i < len(chain)-1 && rng.Float64() < opt.predProb() {
			next := chain[i+1]
			var sibs []*pathtree.Node
			for _, c := range node.Children {
				if c != next {
					sibs = append(sibs, c)
				}
			}
			rng.Shuffle(len(sibs), func(a, b int) { sibs[a], sibs[b] = sibs[b], sibs[a] })
			nPreds := between(rng, 1, opt.maxPreds())
			for p := 0; p < nPreds && p < len(sibs); p++ {
				pred := &xpath.Path{Steps: []xpath.Step{{
					Axis: xpath.Child, Label: pt.Dict().Name(sibs[p].Label),
				}}}
				st.Preds = append(st.Preds, pred)
			}
		}
		q.Steps = append(q.Steps, st)
	}
	if len(q.Steps) < 2 {
		return nil
	}
	if complex {
		mutateComplex(q, rng, opt)
	}
	return q
}

// mutateComplex rewrites axes to // (dropping a random prefix of skipped
// steps to keep the query satisfiable) and node tests to *.
func mutateComplex(q *xpath.Path, rng *rand.Rand, opt Options) {
	// Convert some axes to descendant; a descendant step may absorb its
	// predecessors (e.g. /a/b/c -> //c or /a//c).
	steps := q.Steps
	var out []xpath.Step
	for i := 0; i < len(steps); i++ {
		st := steps[i]
		if rng.Float64() < opt.descProb() {
			st.Axis = xpath.Descendant
			// Absorb up to the previous step with probability ½, unless it
			// would empty the query.
			if len(out) > 0 && rng.Float64() < 0.5 {
				out = out[:len(out)-1]
			}
		}
		out = append(out, st)
	}
	for i := range out {
		if rng.Float64() < opt.wildProb() {
			// Wildcards only where the step keeps an anchor: avoid
			// //* chains on both the first and last step.
			if i != 0 && i != len(out)-1 {
				out[i].Wildcard = true
				out[i].Label = ""
			}
		}
	}
	q.Steps = out
}

// forceComplex guarantees at least one descendant axis (used when random
// mutation produced a plain branching query).
func forceComplex(q *xpath.Path, rng *rand.Rand, opt Options) {
	i := rng.Intn(len(q.Steps))
	q.Steps[i].Axis = xpath.Descendant
}

func between(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

func pathChain(n *pathtree.Node) []*pathtree.Node {
	var rev []*pathtree.Node
	for m := n; m != nil; m = m.Parent {
		rev = append(rev, m)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
