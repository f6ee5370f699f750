package het

import (
	"xseed/internal/pathtree"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// candidateVisit receives one branching candidate u[preds]/r and its actual
// cardinality. preds is only valid during the call.
type candidateVisit func(u *pathtree.Node, preds []*pathtree.Node, r *pathtree.Node, actual int64)

// walkCandidates enumerates the leaf-level branching candidates u[preds]/r
// of the path tree (paper Section 5, "HET Construction") and hands each to
// visit with its actual cardinality, counted from u's extent: the document
// elements whose rooted label path is u.
//
// Every step of u[p1]...[pk]/r is a child step, so the query selects the
// r-labelled children of those elements of u's extent that have a child
// labelled pi for every i; that count is what the NoK operator returns for
// the query, without evaluating it from the document root. The walk carries
// the extents down the path tree in preorder: the extent of u's child c is
// the c-labelled children of u's extent, so each element is read only as a
// child of its parent, twice (to size its node's extent, then to place it).
//
// Candidates follow the paper: for each path tree node v with bsel(v) below
// the threshold, u is v's parent, v one of the predicates, and r a distinct
// sibling. A below-threshold node need only be *one of* the predicates; the
// others range over all distinct siblings. Predicate sets of size 1..MBP
// are enumerated once each (index-ascending), which is what makes 2BP/3BP
// combinatorially more expensive than 1BP (Figure 6). Nodes come in path
// tree preorder and each node's candidates in that subset order, at most
// MaxCandidatesPerNode of them when it is set.
func walkCandidates(doc *xmldoc.Document, pt *pathtree.Tree, opt PrecomputeOptions, visit candidateVisit) {
	thr := opt.bselThreshold()
	if opt.MBP < 1 || pt.Root == nil {
		return
	}
	// A document without candidates (XMark at the default threshold) pays
	// for no extents.
	found := false
	pt.Walk(func(u *pathtree.Node) { found = found || hasCandidate(u, thr) })
	if !found {
		return
	}
	w := &candidateWalk{
		doc:   doc,
		opt:   opt,
		thr:   thr,
		visit: visit,
		slot:  make([]int32, doc.Dict().Len()),
		elems: make([]xmldoc.NodeID, doc.NumNodes()),
	}
	w.node(pt.Root, []xmldoc.NodeID{0})
}

// childCount is one distinct child label of an extent element: the label's
// index among the path tree node's children and how many children carry it.
type childCount struct{ child, n int32 }

type candidateWalk struct {
	doc   *xmldoc.Document
	opt   PrecomputeOptions
	thr   float64
	visit candidateVisit

	// slot maps a label to 1 + the index of the current node's child with
	// that label. Every label read belongs to a child of the current node,
	// so entries left over from other nodes are never read.
	slot []int32
	// elems holds the extents of every node below the root; node carves
	// its children's extents from the unused tail.
	elems []xmldoc.NodeID
	used  int

	// Scratch for the current node's candidates, reused across nodes.
	// Extent element j's distinct child labels are kids[off[j]:off[j+1]];
	// pos[i] is 1 + the position in kids of the current element's entry
	// for child i.
	kids []childCount
	off  []int32
	pos  []int32
	// post[postEnd[i-1]:postEnd[i]] lists, ascending, the extent elements
	// with a child of index i (postEnd[-1] being 0).
	post    []int32
	postEnd []int32
	// rows[s-2] holds the elements with every predicate of the set of size
	// s being enumerated (s >= 2; a set of one uses post); acc[i] sums the
	// children of index i over one such row set.
	rows [][]int32
	acc  []int64
}

// node visits u's candidates and recurses into its children. ext is u's
// extent in document order.
func (w *candidateWalk) node(u *pathtree.Node, ext []xmldoc.NodeID) {
	k := len(u.Children)
	if k == 0 {
		return
	}
	for i, c := range u.Children {
		w.slot[c.Label] = int32(i) + 1
	}
	counting := hasCandidate(u, w.thr)
	if counting {
		w.kids, w.off = w.kids[:0], append(w.off[:0], 0)
		w.pos = resize(w.pos, k)
		clear(w.pos)
	}
	// end[i] counts the children of index i, then, after the prefix sum
	// and the fill, is one past the last slot of child i's extent.
	end := make([]int32, k)
	doc := w.doc
	for _, e := range ext {
		first := int32(len(w.kids))
		for m, stop := e+1, doc.SubtreeEnd(e); m < stop; m = doc.SubtreeEnd(m) {
			i := w.slot[doc.Label(m)] - 1
			end[i]++
			if !counting {
				continue
			}
			if p := w.pos[i]; p > first {
				w.kids[p-1].n++
			} else {
				w.pos[i] = int32(len(w.kids)) + 1
				w.kids = append(w.kids, childCount{child: i, n: 1})
			}
		}
		if counting {
			w.off = append(w.off, int32(len(w.kids)))
		}
	}
	var total int32
	for i, n := range end {
		end[i] = total
		total += n
	}
	seg := w.elems[w.used : w.used+int(total)]
	w.used += int(total)
	for _, e := range ext {
		for m, stop := e+1, doc.SubtreeEnd(e); m < stop; m = doc.SubtreeEnd(m) {
			i := w.slot[doc.Label(m)] - 1
			seg[end[i]] = m
			end[i]++
		}
	}
	if counting {
		w.candidates(u, len(ext))
	}
	var lo int32
	for i, c := range u.Children {
		w.node(c, seg[lo:end[i]])
		lo = end[i]
	}
}

// hasCandidate reports whether u has candidates: at least two children,
// one of them below the bsel threshold.
func hasCandidate(u *pathtree.Node, thr float64) bool {
	if len(u.Children) < 2 {
		return false
	}
	for _, v := range u.Children {
		if v.Bsel() < thr {
			return true
		}
	}
	return false
}

// candidates enumerates u's candidates over the n elements of its extent,
// whose child labels node has just recorded in kids and off.
func (w *candidateWalk) candidates(u *pathtree.Node, n int) {
	k := len(u.Children)
	w.postEnd = resize(w.postEnd, k)
	clear(w.postEnd)
	for _, kc := range w.kids {
		w.postEnd[kc.child]++
	}
	var total int32
	for i, c := range w.postEnd {
		w.postEnd[i] = total
		total += c
	}
	w.post = resize(w.post, int(total))
	for j := 0; j < n; j++ {
		for _, kc := range w.kids[w.off[j]:w.off[j+1]] {
			w.post[w.postEnd[kc.child]] = int32(j)
			w.postEnd[kc.child]++
		}
	}
	for len(w.rows) < w.opt.MBP-1 {
		w.rows = append(w.rows, nil)
	}
	w.acc = resize(w.acc, k)

	emitted := 0
	chosen := make([]*pathtree.Node, 0, w.opt.MBP)
	var choose func(start int, rows []int32, hasCand bool) bool
	choose = func(start int, rows []int32, hasCand bool) bool {
		if len(chosen) >= 1 && hasCand {
			clear(w.acc)
			for _, j := range rows {
				for _, kc := range w.kids[w.off[j]:w.off[j+1]] {
					w.acc[kc.child] += int64(kc.n)
				}
			}
			for ri, r := range u.Children {
				if containsNode(chosen, r) {
					continue
				}
				if w.opt.MaxCandidatesPerNode > 0 && emitted >= w.opt.MaxCandidatesPerNode {
					return false
				}
				emitted++
				w.visit(u, chosen, r, w.acc[ri])
			}
		}
		if len(chosen) == w.opt.MBP {
			return true
		}
		for i := start; i < k; i++ {
			var sub []int32
			if len(chosen) == 0 {
				lo := int32(0)
				if i > 0 {
					lo = w.postEnd[i-1]
				}
				sub = w.post[lo:w.postEnd[i]]
			} else {
				sub = w.filter(len(chosen)+1, rows, int32(i))
			}
			v := u.Children[i]
			chosen = append(chosen, v)
			ok := choose(i+1, sub, hasCand || v.Bsel() < w.thr)
			chosen = chosen[:len(chosen)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	choose(0, nil, false)
}

// filter keeps the rows with a child of index i, in the buffer of sets of
// size s.
func (w *candidateWalk) filter(s int, rows []int32, i int32) []int32 {
	out := w.rows[s-2][:0]
	for _, j := range rows {
		for _, kc := range w.kids[w.off[j]:w.off[j+1]] {
			if kc.child == i {
				out = append(out, j)
				break
			}
		}
	}
	w.rows[s-2] = out
	return out
}

// candidateQuery builds u[p1]...[pk]/r from u's rooted steps and labels. Its
// text would be as long as the document is deep, and xpath.Parse holds a
// query to a client's caps, so it is never parsed.
func candidateQuery(uSteps []xpath.Step, preds []string, r string) *xpath.Path {
	q := &xpath.Path{Steps: make([]xpath.Step, len(uSteps), len(uSteps)+1)}
	copy(q.Steps, uSteps)
	predPaths := make([]*xpath.Path, len(preds))
	for i, p := range preds {
		predPaths[i] = &xpath.Path{Steps: []xpath.Step{{Axis: xpath.Child, Label: p}}}
	}
	q.Steps[len(uSteps)-1].Preds = predPaths
	q.Steps = append(q.Steps, xpath.Step{Axis: xpath.Child, Label: r})
	return q
}

// resize returns s with length n, reusing its array when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func containsNode(s []*pathtree.Node, n *pathtree.Node) bool {
	for _, x := range s {
		if x == n {
			return true
		}
	}
	return false
}
