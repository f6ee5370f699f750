// Package datagen generates deterministic synthetic XML documents that
// stand in for the paper's experimental datasets (the per-dataset bullets
// below say what each one reproduces). Every generator is an
// xmldoc.Source: it can be replayed into any sink (document builder,
// kernel builder, XML writer) and produces the identical stream for a
// fixed seed and scale factor.
//
// The generators reproduce the structural characteristics the XSEED
// experiments depend on, not the text content:
//
//   - DBLP: shallow, wide, non-recursive bibliography with per-type
//     optional fields and the pages/publisher sibling correlation that
//     drives the paper's Figure 5 discussion.
//   - XMark: the auction schema of the XML Benchmark Project with its mild
//     parlist/listitem recursion (avg ≈ 0.04, max 1); factor 0.1 ≈ XMark10
//     and 1.0 ≈ XMark100 in the paper's proportions.
//   - Treebank: a probabilistic phrase-structure grammar with deep
//     same-label nesting (avg recursion ≈ 1.3, max ≈ 8-10), the paper's
//     "complex with high degree of recursion" stressor.
//   - SwissProt / TPCH / NASA / XBench: lighter generators covering the
//     remaining datasets ("the trends for the other data sets are
//     similar").
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"xseed/internal/xmldoc"
)

// Dataset names accepted by New.
const (
	NameDBLP      = "dblp"
	NameXMark     = "xmark"
	NameTreebank  = "treebank"
	NameSwissProt = "swissprot"
	NameTPCH      = "tpch"
	NameNASA      = "nasa"
	NameXBench    = "xbench"
)

// Names lists all supported dataset names.
func Names() []string {
	return []string{NameDBLP, NameXMark, NameTreebank, NameSwissProt, NameTPCH, NameNASA, NameXBench}
}

// New returns a generator for the named dataset at the given scale factor.
// Factor 1.0 approximates the paper's full-size dataset node counts
// (DBLP ≈ 4.0M nodes, XMark ≈ 1.67M, Treebank ≈ 2.4M); the paper's derived
// sets are factors of these (XMark10 ≈ 0.1, Treebank.05 = 0.05).
func New(name string, factor float64, seed int64) (xmldoc.Source, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("datagen: factor must be positive, got %g", factor)
	}
	switch strings.ToLower(name) {
	case NameDBLP:
		return &DBLP{Factor: factor, Seed: seed}, nil
	case NameXMark:
		return &XMark{Factor: factor, Seed: seed}, nil
	case NameTreebank:
		return &Treebank{Factor: factor, Seed: seed}, nil
	case NameSwissProt:
		return &SwissProt{Factor: factor, Seed: seed}, nil
	case NameTPCH:
		return &TPCH{Factor: factor, Seed: seed}, nil
	case NameNASA:
		return &NASA{Factor: factor, Seed: seed}, nil
	case NameXBench:
		return &XBench{Factor: factor, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
}

// emitter wraps a sink with interned-label helpers shared by all
// generators.
type emitter struct {
	dict *xmldoc.Dict
	sink xmldoc.Sink
	ids  map[string]xmldoc.LabelID
}

func newEmitter(dict *xmldoc.Dict, sink xmldoc.Sink) *emitter {
	return &emitter{dict: dict, sink: sink, ids: map[string]xmldoc.LabelID{}}
}

func (e *emitter) id(name string) xmldoc.LabelID {
	if id, ok := e.ids[name]; ok {
		return id
	}
	id := e.dict.Intern(name)
	e.ids[name] = id
	return id
}

func (e *emitter) open(name string)  { e.sink.OpenElement(e.id(name)) }
func (e *emitter) close(name string) { e.sink.CloseElement(e.id(name)) }

// leaf emits an empty element.
func (e *emitter) leaf(name string) {
	id := e.id(name)
	e.sink.OpenElement(id)
	e.sink.CloseElement(id)
}

// leaves emits n empty elements.
func (e *emitter) leaves(name string, n int) {
	id := e.id(name)
	for i := 0; i < n; i++ {
		e.sink.OpenElement(id)
		e.sink.CloseElement(id)
	}
}

// scaled converts a full-size count through the scale factor, keeping at
// least 1.
func scaled(base int, factor float64) int {
	n := int(float64(base) * factor)
	if n < 1 {
		n = 1
	}
	return n
}

// chance reports true with probability p.
func chance(rng *rand.Rand, p float64) bool { return rng.Float64() < p }

// between returns a uniform int in [lo, hi].
func between(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}
