package het

import (
	"slices"

	"xseed/internal/estimate"
	"xseed/internal/kernel"
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
	Candidates     int // branching candidates counted, each from its parent path's extent
}

// Precompute builds a hyper-edge table for the document: the actual
// cardinality and backward selectivity of every simple path (from the path
// tree, no document scan needed), plus correlated backward selectivities
// for leaf-level branching patterns with up to MBP predicates, each
// candidate's actual cardinality counted from its parent path's extent
// (walkCandidates) rather than by evaluating its query over the document.
// Entries are ranked by absolute estimation error of the bare kernel.
func Precompute(doc *xmldoc.Document, pt *pathtree.Tree, k *kernel.Kernel, opt PrecomputeOptions) (*Table, PrecomputeStats) {
	var stats PrecomputeStats
	dict := pt.Dict()
	eopt := opt.EstimateOptions
	eopt.HET = nil // rank against the bare kernel
	// One snapshot: its EPT feeds the lockstep walk, its plans rank the
	// branching candidates.
	sn := estimate.NewSnapshot(k, k.Dict(), eopt)

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

	// Branching patterns: each candidate u[preds]/r (see walkCandidates)
	// aggregates into its relative pattern (Table 1 stores d[e]/f, not
	// /a/b/d[e]/f), so occurrences under different rooted paths aggregate.
	type acc struct{ act, base, est float64 }
	accs := map[uint32]*acc{}
	var (
		lastU      *pathtree.Node
		uSteps     []xpath.Step
		parentName string
		predLabels []string
	)
	walkCandidates(doc, pt, opt, func(u *pathtree.Node, preds []*pathtree.Node, r *pathtree.Node, actual int64) {
		if u != lastU {
			lastU, uSteps, parentName = u, u.Query(dict).Steps, dict.Name(u.Label)
		}
		predLabels = predLabels[:0]
		for _, p := range preds {
			predLabels = append(predLabels, dict.Name(p.Label))
		}
		rName := dict.Name(r.Label)
		h := pathhash.Pattern(parentName, predLabels, rName)
		a := accs[h]
		if a == nil {
			a = &acc{}
			accs[h] = a
		}
		stats.Candidates++
		a.act += float64(actual)
		a.base += float64(r.Card) // base is exact from the path tree
		a.est += sn.Estimate(candidateQuery(uSteps, predLabels, rName))
	})

	hashes := make([]uint32, 0, len(accs))
	for h := range accs {
		hashes = append(hashes, h)
	}
	slices.Sort(hashes)
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

	t := New(opt.Budget)
	t.AddBatch(entries)
	return t, stats
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
