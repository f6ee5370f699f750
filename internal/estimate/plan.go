package estimate

import (
	"sync"

	"xseed/internal/pathhash"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// Plan is a query compiled against a label dictionary: every node test is
// resolved to its dense label ID, every HET branching-pattern key is reduced
// to precomputed canonical suffix bytes, and every predicate's shape is
// classified — once, at compile time. Running the plan against an estimation
// snapshot then touches only the immutable EPT and the HET lookup view:
// no dictionary lookups, no string hashing, no re-deriving predicate shapes
// per evaluation (the whole-query-compilation idea of Maneth & Nguyen
// applied to estimation).
//
// A Plan is immutable and safe for concurrent Run calls; per-run scratch
// state is pooled, so steady-state execution does not allocate. The plan
// evaluates the exact arithmetic of the interpretive matcher it replaced, in
// the same order — estimates are bit-identical.
type Plan struct {
	steps   []planStep
	dictLen int // labels interned when compiled; see CompatibleWith
}

// planStep is one compiled main-path location step. A plan is what the
// serving layer caches per query, so the step stays 16 bytes: whatever only
// a step with predicates needs sits behind preds, nil for the rest.
type planStep struct {
	axis     xpath.Axis
	wildcard bool
	known    bool // node test resolves in the dictionary (always true for wildcards)
	label    xmldoc.LabelID
	preds    *stepPreds
}

// stepPreds is a main-path step's predicates with their HET pattern
// acceleration, valid only when the following main-path step is a
// non-wildcard name test. whole is the canonical "[p1]..[pk]/next" bytes
// when every predicate is a single child-axis name step (the whole-set
// correlated lookup); each[i] is the per-predicate "[pi]/next" bytes used by
// the individual fallback when the step carries several predicates and
// predicate i is simple.
type stepPreds struct {
	list  []planPred
	whole []byte
	each  [][]byte
}

// planPred is one compiled predicate (a relative path).
type planPred struct {
	steps []planPredStep
}

// planPredStep is one compiled step of a predicate path, with its own nested
// predicates.
type planPredStep struct {
	axis     xpath.Axis
	wildcard bool
	known    bool
	label    xmldoc.LabelID
	preds    []planPred
}

// Compile compiles q against dict. Labels the dictionary has never seen
// compile to unmatchable steps (a query over them estimates 0), exactly as
// the interpretive matcher resolved them; CompatibleWith reports when a
// later snapshot has interned labels this plan compiled as unknown.
func Compile(q *xpath.Path, dict *xmldoc.Dict) *Plan {
	p := &Plan{dictLen: dict.Len(), steps: make([]planStep, len(q.Steps))}
	for i := range q.Steps {
		st := &q.Steps[i]
		ps := planStep{axis: st.Axis, wildcard: st.Wildcard}
		ps.label, ps.known = resolveLabel(st.Wildcard, st.Label, dict)
		if len(st.Preds) > 0 {
			ps.preds = compileStepPreds(st.Preds, q.Steps[i+1:], dict)
		}
		p.steps[i] = ps
	}
	return p
}

// compileStepPreds compiles a main-path step's predicates; rest is the
// main path after the step, whose first name test completes the HET
// pattern keys.
func compileStepPreds(preds []*xpath.Path, rest []xpath.Step, dict *xmldoc.Dict) *stepPreds {
	sp := &stepPreds{list: make([]planPred, len(preds))}
	for j, pr := range preds {
		sp.list[j] = compilePred(pr, dict)
	}
	if len(rest) == 0 || rest[0].Wildcard {
		return sp
	}
	next := rest[0].Label
	if labels, ok := simplePredLabels(preds); ok {
		sp.whole = pathhash.PatternSuffix(labels, next)
	}
	if len(preds) > 1 {
		sp.each = make([][]byte, len(preds))
		for j, pr := range preds {
			if labels, ok := simplePredLabels([]*xpath.Path{pr}); ok {
				sp.each[j] = pathhash.PatternSuffix(labels, next)
			}
		}
	}
	return sp
}

func compilePred(pr *xpath.Path, dict *xmldoc.Dict) planPred {
	out := planPred{steps: make([]planPredStep, len(pr.Steps))}
	for i := range pr.Steps {
		st := &pr.Steps[i]
		ps := planPredStep{axis: st.Axis, wildcard: st.Wildcard}
		ps.label, ps.known = resolveLabel(st.Wildcard, st.Label, dict)
		for _, nested := range st.Preds {
			ps.preds = append(ps.preds, compilePred(nested, dict))
		}
		out.steps[i] = ps
	}
	return out
}

// resolveLabel mirrors the interpretive matcher's resolve: wildcards match
// anything (label -1), unknown labels are unmatchable.
func resolveLabel(wildcard bool, label string, dict *xmldoc.Dict) (xmldoc.LabelID, bool) {
	if wildcard {
		return -1, true
	}
	return dict.Lookup(label)
}

// CompatibleWith reports whether the plan's compiled label resolution is
// still authoritative for sn: true when the snapshot's dictionary has not
// interned any label since the plan was compiled (interning is append-only,
// so existing IDs never change — only a grown dictionary can turn one of the
// plan's unknown labels into a known one).
func (p *Plan) CompatibleWith(sn *Snapshot) bool { return p.dictLen == sn.dict.Len() }

// NumSteps returns the number of compiled main-path steps.
func (p *Plan) NumSteps() int { return len(p.steps) }

// Run evaluates the plan against the snapshot and returns the estimated
// cardinality. The caller is responsible for compatibility (CompatibleWith);
// running an incompatible plan is safe but may estimate 0 for labels the
// plan compiled before they were interned.
func (p *Plan) Run(sn *Snapshot) float64 {
	root, st := sn.EPT()
	r := runnerPool.Get().(*runner)
	defer runnerPool.Put(r)
	return r.run(p, root, st.Nodes, sn.opt.HET, sn.hashes)
}

// entry is one weighted context node during navigation.
type entry struct {
	n *EPTNode
	w float64
}

// runner is the pooled per-run scratch state: the context/result buffers and
// the node-dedup stamps reused across steps and across runs.
type runner struct {
	het       HET
	hashes    []uint32
	cur, next []entry

	// seen[id] == gen marks EPT node id as already in the current step's
	// output, at next[pos[id]]. gen goes up by one per step, so a step
	// starts with an empty set without clearing anything; seen is cleared
	// only when gen wraps. Both grow to the largest EPT the runner has run.
	seen []uint32
	pos  []int32
	gen  uint32

	virtual   EPTNode
	rootChild [1]*EPTNode
}

var runnerPool = sync.Pool{New: func() any { return new(runner) }}

// run evaluates the compiled query over the EPT rooted at root, which has
// nodes nodes — the Algorithm 3 semantics of the interpretive matcher,
// operation for operation: Σ over result matches of card × accumulated
// absel, with node-set max-weight merging per step.
func (r *runner) run(p *Plan, root *EPTNode, nodes int, het HET, hashes []uint32) float64 {
	if root == nil || len(p.steps) == 0 {
		return 0
	}
	if len(r.seen) < nodes {
		r.seen, r.pos = make([]uint32, nodes), make([]int32, nodes)
	}
	r.het, r.hashes = het, hashes
	// Navigation starts at a virtual node above the EPT root whose only
	// child is the root.
	r.rootChild[0] = root
	r.virtual = EPTNode{Children: r.rootChild[:], Card: 1, Fsel: 1, Bsel: 1}
	ctx := append(r.cur[:0], entry{n: &r.virtual, w: 1})
	used := len(ctx)
	for i := range p.steps {
		ctx = r.step(ctx, &p.steps[i])
		used = max(used, len(ctx))
		if len(ctx) == 0 {
			break
		}
		// The buffers swap roles each step: the step's output becomes the
		// next step's context and the old context is recycled as output.
		r.cur, r.next = r.next, r.cur
	}
	var est float64
	for _, e := range ctx {
		est += e.n.Card * e.w
	}
	// Scrub every EPT reference before pooling: a runner parked with stale
	// node pointers in its buffers' backing arrays would pin a retired
	// snapshot's whole EPT while idle. No step wrote past used.
	clear(r.cur[:min(used, cap(r.cur))])
	clear(r.next[:min(used, cap(r.next))])
	r.cur, r.next = r.cur[:0], r.next[:0]
	r.het, r.hashes, r.rootChild[0], r.virtual = nil, nil, nil, EPTNode{}
	return est
}

// step applies one location step to the weighted context set, writing the
// result to r.next. Node-set semantics: each EPT node appears at most once
// in the result; when it is reachable from several context entries
// (possible with the descendant axis), the maximum weight is kept.
func (r *runner) step(ctx []entry, st *planStep) []entry {
	if !st.known {
		return nil
	}
	if r.gen++; r.gen == 0 {
		clear(r.seen)
		r.gen = 1
	}
	r.next = r.next[:0]
	for _, e := range ctx {
		r.visit(e.n, e.w, st)
	}
	return r.next
}

// visit adds the children of n that pass st, weighted by w — and, on the
// descendant axis, their descendants too, depth first.
func (r *runner) visit(n *EPTNode, w float64, st *planStep) {
	for _, c := range n.Children {
		if st.wildcard || c.Label == st.label {
			if wp := r.predWeight(c, st); wp > 0 {
				r.add(c, w*wp)
			}
		}
		if st.axis == xpath.Descendant {
			r.visit(c, w, st)
		}
	}
}

// add puts n in the step's output with weight w, or raises its weight to w
// when it is there already.
func (r *runner) add(n *EPTNode, w float64) {
	if r.seen[n.ID] != r.gen {
		r.seen[n.ID], r.pos[n.ID] = r.gen, int32(len(r.next))
		r.next = append(r.next, entry{n, w})
	} else if e := &r.next[r.pos[n.ID]]; w > e.w {
		e.w = w
	}
}

// predWeight returns the aggregated backward selectivity contribution of a
// step's predicates evaluated at EPT node n: the estimated fraction of the
// elements represented by n that satisfy every predicate.
//
// When the hyper-edge table holds a correlated backward selectivity for the
// branching pattern label(n)[preds...]/nextLabel (precompiled into
// preds.whole), that value is used for the whole predicate set, capturing
// sibling correlation (Section 5). Otherwise each predicate is first tried
// individually against the HET and independence is assumed across
// predicates (the absel product of Section 4).
func (r *runner) predWeight(n *EPTNode, st *planStep) float64 {
	sp := st.preds
	if sp == nil {
		return 1
	}
	if r.het != nil && sp.whole != nil {
		h := pathhash.Bytes(r.hashes[n.Label], sp.whole)
		if bsel, ok := r.het.LookupPattern(h); ok {
			return clamp01(bsel)
		}
	}
	w := 1.0
	for j := range sp.list {
		// Individual 1BP pattern lookup before falling back to independence.
		if r.het != nil && sp.each != nil && sp.each[j] != nil {
			h := pathhash.Bytes(r.hashes[n.Label], sp.each[j])
			if bsel, ok := r.het.LookupPattern(h); ok {
				w *= clamp01(bsel)
				continue
			}
		}
		pw := r.predPathWeight(n, sp.list[j].steps)
		if pw <= 0 {
			return 0
		}
		w *= pw
	}
	return clamp01(w)
}

// predPathWeight estimates the fraction of n's elements having a match of
// the relative path steps: the sum over witnesses of the product of
// backward selectivities along the EPT path from n to the witness, capped
// at 1 (a fraction). A single-witness, single-step predicate reduces to the
// paper's bsel term exactly.
func (r *runner) predPathWeight(n *EPTNode, steps []planPredStep) float64 {
	if len(steps) == 0 {
		return 1
	}
	st := &steps[0]
	if !st.known {
		return 0
	}
	if st.axis == xpath.Child {
		var sum float64
		for _, c := range n.Children {
			if st.wildcard || c.Label == st.label {
				sum += c.Bsel * r.stepOwnPreds(c, st) * r.predPathWeight(c, steps[1:])
			}
		}
		return clamp01(sum)
	}
	return clamp01(r.predDescendants(n, steps))
}

// predDescendants sums, over n's descendants, the witness weight of a
// predicate path whose first step (steps[0]) has the descendant axis.
func (r *runner) predDescendants(n *EPTNode, steps []planPredStep) float64 {
	st := &steps[0]
	var s float64
	for _, c := range n.Children {
		var here float64
		if st.wildcard || c.Label == st.label {
			here = r.stepOwnPreds(c, st) * r.predPathWeight(c, steps[1:])
		}
		s += c.Bsel * (here + r.predDescendants(c, steps))
	}
	return s
}

// stepOwnPreds evaluates the nested predicates attached to a predicate step
// (e.g. the [h] in /a/b[g[h]]). Nested predicates never consult the HET
// pattern table (there is no main-path sibling); independence applies.
func (r *runner) stepOwnPreds(c *EPTNode, st *planPredStep) float64 {
	w := 1.0
	for i := range st.preds {
		pw := r.predPathWeight(c, st.preds[i].steps)
		if pw <= 0 {
			return 0
		}
		w *= pw
	}
	return w
}

// simplePredLabels extracts predicate labels when every predicate is a
// single child-axis name step without nesting — the shape stored in the
// HET.
func simplePredLabels(preds []*xpath.Path) ([]string, bool) {
	labels := make([]string, len(preds))
	for i, p := range preds {
		if len(p.Steps) != 1 {
			return nil, false
		}
		st := &p.Steps[0]
		if st.Axis != xpath.Child || st.Wildcard || len(st.Preds) != 0 {
			return nil, false
		}
		labels[i] = st.Label
	}
	return labels, true
}

func clamp01(f float64) float64 {
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}
