// Package xseed is a Go implementation of XSEED — the XML synopsis for
// accurate and fast XPath cardinality estimation of Zhang, Özsu, Aboulnaga
// and Ilyas (ICDE 2006).
//
// XSEED summarizes an XML document into a two-layer synopsis:
//
//   - a kernel — an edge-labeled label-split graph, usually a few KB, that
//     captures the document's structure including recursion levels; and
//   - an optional hyper-edge table (HET) — actual cardinalities of simple
//     paths and correlated backward selectivities of branching patterns,
//     ranked by estimation error and resident up to a memory budget.
//
// A cost-based optimizer asks the synopsis for the estimated cardinality of
// a path query (/, //, *, and structural predicates [...]); the synopsis
// unfolds the kernel into an expanded path tree and matches the query twig
// against it. Estimates typically cost well under 2% of actual query
// evaluation.
//
// Basic usage:
//
//	doc, _ := xseed.ParseXMLString("<a><b/><b><c/></b></a>")
//	syn, _ := xseed.BuildSynopsis(doc, nil)
//	est, _ := syn.Estimate("/a/b[c]")
//	act, _ := doc.Count("/a/b[c]")
//
// The package also provides exact evaluation over a succinct document
// storage (Count), synthetic dataset generation mirroring the paper's
// experiments (Generate), incremental synopsis maintenance under document
// updates, and query-feedback self-tuning.
package xseed

import (
	"fmt"
	"io"
	"os"
	"strings"

	"xseed/internal/datagen"
	"xseed/internal/het"
	"xseed/internal/kernel"
	"xseed/internal/nok"
	"xseed/internal/pathtree"
	"xseed/internal/workload"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// Document is a loaded XML document: the succinct storage used for exact
// evaluation, the path tree, and the XSEED kernel, all built in a single
// parse pass.
type Document struct {
	doc  *xmldoc.Document
	pt   *pathtree.Tree
	kern *kernel.Kernel
	ev   *nok.Evaluator
}

// Stats summarizes document structure (the paper's Table 2 columns).
type Stats struct {
	Nodes       int64   // element count
	MaxDepth    int     // deepest element (root = 1)
	AvgRecLevel float64 // mean node recursion level
	MaxRecLevel int     // document recursion level (DRL)
	TextBytes   int64   // approximate serialized size
	Labels      int     // distinct element labels
	PathCount   int     // distinct rooted label paths
}

// ParseXML loads a document from XML text on r.
func ParseXML(r io.Reader) (*Document, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xseed: read input: %w", err)
	}
	return build(xmldoc.NewParserBytes(data))
}

// ParseXMLString loads a document from an XML string.
func ParseXMLString(s string) (*Document, error) {
	return build(xmldoc.NewParserString(s))
}

// LoadFile loads a document from an XML file.
func LoadFile(path string) (*Document, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("xseed: %w", err)
	}
	return build(xmldoc.NewParserFile(path))
}

// Generate produces one of the built-in synthetic datasets modeled on the
// paper's experimental data: "dblp", "xmark", "treebank", "swissprot",
// "tpch", "nasa", or "xbench". Factor 1.0 approximates the full-size
// dataset (DBLP ≈ 4M elements); the paper's XMark10 is factor 0.1 of xmark,
// Treebank.05 is factor 0.05 of treebank. Generation is deterministic in
// (name, factor, seed).
func Generate(name string, factor float64, seed int64) (*Document, error) {
	src, err := datagen.New(name, factor, seed)
	if err != nil {
		return nil, err
	}
	return build(src)
}

// Datasets lists the dataset names Generate accepts.
func Datasets() []string { return datagen.Names() }

func build(src xmldoc.Source) (*Document, error) {
	dict := xmldoc.NewDict()
	kb := kernel.NewBuilder(dict)
	pb := pathtree.NewBuilder(dict)
	doc, err := xmldoc.Build(src, dict, kb, pb)
	if err != nil {
		return nil, err
	}
	k, err := kb.Kernel()
	if err != nil {
		return nil, err
	}
	return &Document{doc: doc, pt: pb.Tree(), kern: k, ev: nok.New(doc)}, nil
}

// Stats returns the document's structural statistics.
func (d *Document) Stats() Stats {
	st := d.doc.Stats()
	return Stats{
		Nodes:       st.Nodes,
		MaxDepth:    st.MaxDepth,
		AvgRecLevel: st.AvgRecLevel,
		MaxRecLevel: st.MaxRecLevel,
		TextBytes:   st.TextBytes,
		Labels:      d.doc.Dict().Len(),
		PathCount:   d.pt.NumNodes(),
	}
}

// NumNodes returns the number of elements.
func (d *Document) NumNodes() int { return d.doc.NumNodes() }

// Count evaluates the query exactly against the document (a full storage
// scan, not an estimate) and returns the result cardinality.
func (d *Document) Count(query string) (int64, error) {
	q, err := xpath.Parse(query)
	if err != nil {
		return 0, err
	}
	return d.ev.Count(q), nil
}

// CountQuery is Count for a pre-parsed query.
func (d *Document) CountQuery(q *Query) int64 { return d.ev.Count(q.p) }

// WriteXML serializes the document as XML text.
func (d *Document) WriteXML(w io.Writer) error {
	xw := xmldoc.NewXMLWriter(w, d.doc.Dict())
	if err := d.doc.Emit(d.doc.Dict(), xw); err != nil {
		return err
	}
	return xw.Flush()
}

// SimplePathQueries returns the document's rooted simple paths as queries
// with exact cardinalities attached — the paper's SP workload. max bounds
// the count (0 = all).
func (d *Document) SimplePathQueries(max int) []*Query {
	qs := workload.AllSimplePaths(d.pt, max)
	out := make([]*Query, len(qs))
	for i := range qs {
		out[i] = &Query{p: qs[i].Path, actual: qs[i].Actual, hasActual: true}
	}
	return out
}

// RandomWorkload generates n random queries of the given class ("BP" for
// branching, "CP" for complex), with at most maxPreds predicates per step
// (the paper's 1BP/2BP/3BP knob); generation is deterministic in seed.
// Queries are filtered to be non-trivial (at least one actual result) on a
// best-effort basis, and each carries its exact cardinality.
func (d *Document) RandomWorkload(class string, n int, maxPreds int, seed int64) ([]*Query, error) {
	return d.RandomWorkloadOpts(class, WorkloadOptions{N: n, MaxPredsPerStep: maxPreds, Seed: seed})
}

// WorkloadOptions tune RandomWorkloadOpts beyond the basic knobs.
type WorkloadOptions struct {
	// N is the number of queries to generate.
	N int

	// MaxPredsPerStep bounds predicates attached to one step (the paper's
	// 1BP/2BP/3BP knob). Zero means 1.
	MaxPredsPerStep int

	// PredProb is the probability a step receives predicates (0 = the
	// generator default of 0.45).
	PredProb float64

	// Seed drives generation; workloads are deterministic for a fixed seed.
	Seed int64

	// AllowEmpty keeps queries with zero actual results; by default
	// generation retries (boundedly) until each query is non-trivial.
	AllowEmpty bool
}

// RandomWorkloadOpts is RandomWorkload with the full option set.
func (d *Document) RandomWorkloadOpts(class string, o WorkloadOptions) ([]*Query, error) {
	opt := workload.Options{
		N:               o.N,
		MaxPredsPerStep: o.MaxPredsPerStep,
		PredProb:        o.PredProb,
		Seed:            o.Seed,
		RequireNonEmpty: !o.AllowEmpty,
	}
	var qs []workload.Query
	switch strings.ToUpper(class) {
	case "BP":
		qs = workload.Branching(d.pt, d.ev, opt)
	case "CP":
		qs = workload.Complex(d.pt, d.ev, opt)
	default:
		return nil, fmt.Errorf("xseed: unknown workload class %q (want BP or CP)", class)
	}
	out := make([]*Query, len(qs))
	for i := range qs {
		out[i] = &Query{p: qs[i].Path, actual: qs[i].Actual, hasActual: true}
	}
	return out, nil
}

// Query is a parsed path expression.
type Query struct {
	p         *xpath.Path
	actual    int64
	hasActual bool
}

// ParseQuery parses an absolute path expression such as
// //regions/australia/item[shipping]/location.
func ParseQuery(s string) (*Query, error) {
	p, err := xpath.Parse(s)
	if err != nil {
		return nil, err
	}
	return &Query{p: p}, nil
}

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(s string) *Query {
	q, err := ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the query.
func (q *Query) String() string { return q.p.String() }

// Class returns the paper's workload class: "SP", "BP", or "CP".
func (q *Query) Class() string { return q.p.Classify().String() }

// IsRecursive reports whether the query is recursive (Definition 2).
func (q *Query) IsRecursive() bool { return q.p.IsRecursive() }

// Actual returns the exact cardinality recorded at workload-generation
// time; ok is false if the query did not come from a workload generator.
func (q *Query) Actual() (card int64, ok bool) { return q.actual, q.hasActual }

// WithoutPredicates returns a copy of the query with every predicate
// removed — the base path whose cardinality an optimizer observes from the
// scan operator underneath a twig.
func (q *Query) WithoutPredicates() *Query {
	return &Query{p: het.StripPreds(q.p)}
}
