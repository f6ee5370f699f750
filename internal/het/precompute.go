package het

import (
	"sort"

	"xseed/internal/estimate"
	"xseed/internal/kernel"
	"xseed/internal/nok"
	"xseed/internal/pathhash"
	"xseed/internal/pathtree"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// PrecomputeOptions configure HET pre-computation (paper Section 5, "HET
// Construction").
type PrecomputeOptions struct {
	// MBP is the maximum number of branching predicates in candidate
	// patterns (0 = simple paths only, the bare kernel case; the paper
	// recommends 1 as the best construction-time/accuracy tradeoff and
	// shows 2 costing ~10x for ~8% further error reduction — Figure 6).
	MBP int

	// BselThreshold: branching candidates are enumerated only for path tree
	// nodes whose backward selectivity is below this threshold (the paper
	// uses 0.1 everywhere except Treebank's 0.001). Zero means 0.1.
	BselThreshold float64

	// MaxCandidatesPerNode caps branching-pattern enumeration per path tree
	// node, bounding the combinatorial blowup on bushy schemas. Zero means
	// no cap.
	MaxCandidatesPerNode int

	// Budget is the resident memory budget of the resulting table in bytes
	// (<= 0: unlimited).
	Budget int

	// NoFalsePositiveEntries skips zero-cardinality entries for paths the
	// kernel derives but the document lacks (ablation knob; see the walk
	// comment in Precompute for why they matter).
	NoFalsePositiveEntries bool

	// Estimator options used when ranking entries by estimation error.
	EstimateOptions estimate.Options
}

func (o PrecomputeOptions) bselThreshold() float64 {
	if o.BselThreshold == 0 {
		return 0.1
	}
	return o.BselThreshold
}

// PrecomputeStats reports construction effort, for the Figure 6 experiment.
type PrecomputeStats struct {
	PathEntries    int
	PatternEntries int
	NokEvaluations int // actual-cardinality evaluations over the document
}

// Precompute builds a hyper-edge table for the document: the actual
// cardinality and backward selectivity of every simple path (from the path
// tree, no document scan needed), plus correlated backward selectivities
// for leaf-level branching patterns with up to MBP predicates, evaluated
// with the NoK operator. Entries are ranked by absolute estimation error of
// the bare kernel.
func Precompute(doc *xmldoc.Document, pt *pathtree.Tree, k *kernel.Kernel, opt PrecomputeOptions) (*Table, PrecomputeStats) {
	var stats PrecomputeStats
	dict := pt.Dict()
	eopt := opt.EstimateOptions
	eopt.HET = nil // rank against the bare kernel
	// One snapshot: its EPT feeds the lockstep walk, its plans rank the
	// branching candidates.
	sn := estimate.NewSnapshot(k, k.Dict(), eopt)
	ev := nok.New(doc)

	var entries []Entry

	// Simple paths: walk the path tree and the EPT in lockstep; both index
	// rooted label paths, so each node costs O(children) instead of a full
	// matcher run. The walk covers the union of the two trees:
	//
	//   - paths in both: entry with the actual cardinality and bsel, error
	//     |est - actual|;
	//   - paths only in the path tree (pruned from the EPT by
	//     CARD_THRESHOLD): entry with the actual values, error = actual;
	//   - paths only in the EPT (the kernel's false positives,
	//     Observation 1): entry with cardinality 0, error = estimate.
	//     The kernel cannot tell these from real paths, and they dominate
	//     complex-path error on heterogeneous data; the path tree knows
	//     they do not exist, so pre-computation records them.
	root, _ := sn.EPT()
	var walk func(pn *pathtree.Node, en *estimate.EPTNode, h uint32)
	walk = func(pn *pathtree.Node, en *estimate.EPTNode, h uint32) {
		// At least one of pn, en is non-nil; they describe the same rooted
		// label path.
		var label xmldoc.LabelID
		if pn != nil {
			label = pn.Label
		} else {
			label = en.Label
		}
		h = pathhash.AddLabel(h, dict.Name(label))
		var estCard, actCard, actBsel float64
		if en != nil {
			estCard = en.Card
		}
		if pn != nil {
			actCard = float64(pn.Card)
			actBsel = pn.Bsel()
		}
		entries = append(entries, Entry{
			Hash:   h,
			Card:   actCard,
			Bsel:   actBsel,
			BselOK: true,
			Err:    abs(estCard - actCard),
		})
		// Children over the union of labels, path tree first for
		// deterministic order.
		seen := map[xmldoc.LabelID]bool{}
		if pn != nil {
			for _, pc := range pn.Children {
				seen[pc.Label] = true
				walk(pc, eptChild(en, pc.Label), h)
			}
		}
		if en != nil && !opt.NoFalsePositiveEntries {
			for _, ec := range en.Children {
				if !seen[ec.Label] {
					walk(nil, ec, h)
				}
			}
		}
	}
	switch {
	case pt.Root != nil && root != nil && pt.Root.Label == root.Label:
		walk(pt.Root, root, pathhash.Basis)
	case pt.Root != nil:
		walk(pt.Root, nil, pathhash.Basis)
	case root != nil:
		walk(nil, root, pathhash.Basis)
	}
	stats.PathEntries = len(entries)

	// Branching patterns. Candidates follow the paper: for each path tree
	// node v with bsel(v) < BSEL_THRESHOLD, enumerate leaf-level branching
	// paths u[v...]/r where u is v's parent and r a distinct sibling.
	// Patterns are relative (Table 1 stores d[e]/f, not /a/b/d[e]/f), so
	// occurrences under different rooted paths aggregate.
	if opt.MBP >= 1 && pt.Root != nil {
		type acc struct {
			parent  string
			preds   []string
			next    string
			act     float64
			base    float64
			est     float64
			estBase float64
		}
		accs := map[uint32]*acc{}
		threshold := opt.bselThreshold()

		pt.Walk(func(u *pathtree.Node) {
			if len(u.Children) < 2 {
				return
			}
			// Predicate candidates: children below the bsel threshold.
			var cands []*pathtree.Node
			for _, v := range u.Children {
				if v.Bsel() < threshold {
					cands = append(cands, v)
				}
			}
			if len(cands) == 0 {
				return
			}
			// Each candidate u[preds]/r is built from labels: its text
			// would be as long as the document is deep, and xpath.Parse
			// holds a query to a client's caps.
			uSteps := u.Query(dict).Steps
			emitted := 0
			emit := func(preds []*pathtree.Node, r *pathtree.Node) bool {
				if opt.MaxCandidatesPerNode > 0 && emitted >= opt.MaxCandidatesPerNode {
					return false
				}
				emitted++
				q := &xpath.Path{Steps: make([]xpath.Step, len(uSteps), len(uSteps)+1)}
				copy(q.Steps, uSteps)
				predLabels := make([]string, len(preds))
				predPaths := make([]*xpath.Path, len(preds))
				for i, p := range preds {
					predLabels[i] = dict.Name(p.Label)
					predPaths[i] = &xpath.Path{Steps: []xpath.Step{{Axis: xpath.Child, Label: predLabels[i]}}}
				}
				q.Steps[len(uSteps)-1].Preds = predPaths
				rName := dict.Name(r.Label)
				q.Steps = append(q.Steps, xpath.Step{Axis: xpath.Child, Label: rName})
				parentName := dict.Name(u.Label)
				h := pathhash.Pattern(parentName, predLabels, rName)
				a := accs[h]
				if a == nil {
					a = &acc{parent: parentName, preds: predLabels, next: rName}
					accs[h] = a
				}
				actual := float64(ev.Count(q))
				stats.NokEvaluations++
				a.act += actual
				a.base += float64(r.Card)
				a.est += sn.Estimate(q)
				a.estBase += float64(r.Card) // base is exact from the path tree
				return true
			}

			// Predicate sets of size 1..MBP and sibling continuations. Per
			// the paper, a below-threshold node need only be *one of* the
			// predicates; the others range over all distinct siblings.
			// Subsets are enumerated once each (index-ascending), which is
			// what makes 2BP/3BP combinatorially more expensive than 1BP
			// (Figure 6's ~10× construction time).
			isCand := func(v *pathtree.Node) bool { return v.Bsel() < threshold }
			var choose func(start int, chosen []*pathtree.Node, hasCand bool) bool
			choose = func(start int, chosen []*pathtree.Node, hasCand bool) bool {
				if len(chosen) >= 1 && hasCand {
					for _, r := range u.Children {
						if containsNode(chosen, r) {
							continue
						}
						if !emit(chosen, r) {
							return false
						}
					}
				}
				if len(chosen) == opt.MBP {
					return true
				}
				for i := start; i < len(u.Children); i++ {
					v := u.Children[i]
					if !choose(i+1, append(chosen, v), hasCand || isCand(v)) {
						return false
					}
				}
				return true
			}
			choose(0, nil, false)
		})

		hashes := make([]uint32, 0, len(accs))
		for h := range accs {
			hashes = append(hashes, h)
		}
		sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
		for _, h := range hashes {
			a := accs[h]
			if a.base <= 0 {
				continue
			}
			corr := a.act / a.base
			if corr > 1 {
				corr = 1
			}
			entries = append(entries, Entry{
				Hash:    h,
				Pattern: true,
				Card:    a.act,
				Bsel:    corr,
				BselOK:  true,
				Err:     abs(a.est - a.act),
			})
			stats.PatternEntries++
		}
	}

	t := New(opt.Budget)
	t.AddBatch(entries)
	return t, stats
}

func containsNode(s []*pathtree.Node, n *pathtree.Node) bool {
	for _, x := range s {
		if x == n {
			return true
		}
	}
	return false
}

func eptChild(en *estimate.EPTNode, label xmldoc.LabelID) *estimate.EPTNode {
	if en == nil {
		return nil
	}
	for _, c := range en.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}
