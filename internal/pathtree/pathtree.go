// Package pathtree implements the path tree of Aboulnaga et al. (VLDB 2001)
// as used by the XSEED paper: the tree of distinct rooted label paths of an
// XML document, annotated per node with the exact cardinality of the path
// and the exact backward selectivity (the fraction of parent-path elements
// that have at least one child with this label).
//
// The path tree drives hyper-edge table (HET) pre-computation — it supplies
// the actual cardinalities of all simple paths without touching the
// document again — and simple-path workload generation.
package pathtree

import (
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// Node is a path tree node: one distinct rooted label path.
type Node struct {
	Label    xmldoc.LabelID
	Parent   *Node
	Children []*Node

	// Card is the number of document elements whose rooted label path is
	// exactly this node's path.
	Card int64

	// ParentsWithChild is the number of document elements on the parent
	// path that have at least one child with this label. The exact backward
	// selectivity of the path is ParentsWithChild / Parent.Card.
	ParentsWithChild int64

	Depth int // root = 1
}

// Bsel returns the exact backward selectivity of the node's path:
// |parentPath[label]| / |parentPath|. The root's bsel is 1.
func (n *Node) Bsel() float64 {
	if n.Parent == nil {
		return 1
	}
	return float64(n.ParentsWithChild) / float64(n.Parent.Card)
}

// Child returns the child with the given label, or nil.
func (n *Node) Child(label xmldoc.LabelID) *Node {
	for _, c := range n.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// Path returns the rooted label-ID path ending at n.
func (n *Node) Path() []xmldoc.LabelID {
	var rev []xmldoc.LabelID
	for m := n; m != nil; m = m.Parent {
		rev = append(rev, m.Label)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Query returns the rooted path as an absolute simple-path query, such as
// /a/c/s. It is built from the labels, never parsed from text, so it has a
// step for every level the document nests, however many more that is than
// xpath.Parse takes from a client.
func (n *Node) Query(dict *xmldoc.Dict) *xpath.Path {
	ids := n.Path()
	q := &xpath.Path{Steps: make([]xpath.Step, len(ids))}
	for i, id := range ids {
		q.Steps[i] = xpath.Step{Axis: xpath.Child, Label: dict.Name(id)}
	}
	return q
}

// Tree is a document's path tree.
type Tree struct {
	Root  *Node
	dict  *xmldoc.Dict
	nodes int
}

// Dict returns the dictionary the tree's label IDs belong to.
func (t *Tree) Dict() *xmldoc.Dict { return t.dict }

// NumNodes returns the number of distinct rooted label paths.
func (t *Tree) NumNodes() int { return t.nodes }

// Walk visits every node in depth-first preorder.
func (t *Tree) Walk(visit func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		visit(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

// Find returns the node for the given rooted label path, or nil.
func (t *Tree) Find(path []xmldoc.LabelID) *Node {
	if t.Root == nil || len(path) == 0 || t.Root.Label != path[0] {
		return nil
	}
	n := t.Root
	for _, id := range path[1:] {
		n = n.Child(id)
		if n == nil {
			return nil
		}
	}
	return n
}

// FindNames is Find with label names, for tests and tools.
func (t *Tree) FindNames(names ...string) *Node {
	path := make([]xmldoc.LabelID, len(names))
	for i, s := range names {
		id, ok := t.dict.Lookup(s)
		if !ok {
			return nil
		}
		path[i] = id
	}
	return t.Find(path)
}

// Builder is an event sink that constructs a Tree in one document pass.
type Builder struct {
	tree  *Tree
	stack []*frame
	free  []*frame
}

type frame struct {
	node *Node
	// seen holds the distinct child labels of the current document element,
	// so ParentsWithChild is incremented once per (element, child label).
	// Distinct child labels per element are few; linear scan wins over a
	// map.
	seen []xmldoc.LabelID
}

// NewBuilder returns a path tree builder for documents using dict.
func NewBuilder(dict *xmldoc.Dict) *Builder {
	return &Builder{tree: &Tree{dict: dict}}
}

// OpenElement implements xmldoc.Sink.
func (b *Builder) OpenElement(label xmldoc.LabelID) {
	var node *Node
	if len(b.stack) == 0 {
		if b.tree.Root == nil {
			b.tree.Root = &Node{Label: label, Depth: 1}
			b.tree.nodes++
		}
		node = b.tree.Root
	} else {
		top := b.stack[len(b.stack)-1]
		parent := top.node
		node = parent.Child(label)
		if node == nil {
			node = &Node{Label: label, Parent: parent, Depth: parent.Depth + 1}
			parent.Children = append(parent.Children, node)
			b.tree.nodes++
		}
		if !contains(top.seen, label) {
			top.seen = append(top.seen, label)
			node.ParentsWithChild++
		}
	}
	node.Card++

	var f *frame
	if n := len(b.free); n > 0 {
		f = b.free[n-1]
		b.free = b.free[:n-1]
		f.node, f.seen = node, f.seen[:0]
	} else {
		f = &frame{node: node}
	}
	b.stack = append(b.stack, f)
}

// CloseElement implements xmldoc.Sink.
func (b *Builder) CloseElement(label xmldoc.LabelID) {
	n := len(b.stack)
	f := b.stack[n-1]
	b.stack = b.stack[:n-1]
	b.free = append(b.free, f)
}

// Tree returns the built tree. Call after the event stream completes.
func (b *Builder) Tree() *Tree { return b.tree }

func contains(s []xmldoc.LabelID, v xmldoc.LabelID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
