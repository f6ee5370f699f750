package xpath

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// MaxNesting is how deeply predicates may nest: "/a[b[c]]" nests two
// deep. The parser, the renderer and the plan compiler each recurse once
// per level, so an unbounded depth would let one query exhaust a
// goroutine's stack, which no caller can recover from.
const MaxNesting = 64

// MaxQueryBytes and MaxSteps bound one query from outside the program, so
// that what its parse allocates, about 160 bytes per input byte for a flat
// path, and the text a compiled plan keeps cannot grow with whatever a
// client sends. Over the xmark, treebank and dblp datasets at factor 0.01,
// seeds 1 and 2, every simple path plus 1,000 BP and 1,000 CP queries at
// each of 1, 2 and 3 predicates per step make 50,709 queries. The longest
// is 201 bytes and the one with the most steps has 52, both from treebank,
// so 4 KiB and 256 steps leave margins of 20× and 4.9×. Parse holds a query
// to both: one over either gets a ParseError at the first byte past the
// cap, unless an error comes earlier. Paths the program builds from a
// document's labels are as long as the document is deep, so they are never
// rendered and parsed back through Parse; Reparse has no caps.
const (
	// MaxQueryBytes bounds a query's length.
	MaxQueryBytes = 4096

	// MaxSteps bounds a query's steps, its predicates' steps included.
	MaxSteps = 256
)

// maxQuote bounds what a ParseError's message quotes of its input: a
// longer input is quoted as an excerpt around the error, and a longer
// unparsed tail by its start, so that an error about a megabyte-long query
// is not itself a megabyte long.
const maxQuote = 64

// ParseError describes a syntax error with its position in the input.
type ParseError struct {
	Input string
	Pos   int
	Msg   string
}

func (e *ParseError) Error() string {
	if len(e.Input) <= maxQuote {
		return fmt.Sprintf("xpath: parse %q at offset %d: %s", e.Input, e.Pos, e.Msg)
	}
	lo := max(0, min(e.Pos, len(e.Input))-maxQuote/2)
	return fmt.Sprintf("xpath: parse %d-byte query at offset %d, near %q: %s", len(e.Input), e.Pos, excerpt(e.Input, lo), e.Msg)
}

// excerpt returns at most maxQuote bytes of s from lo, with both ends
// moved inward to rune starts so that no character is cut in half. Bytes
// that are not UTF-8 may shorten it, down to nothing.
func excerpt(s string, lo int) string {
	hi := min(len(s), lo+maxQuote)
	for lo < hi && !utf8.RuneStart(s[lo]) {
		lo++
	}
	for hi > lo && hi < len(s) && !utf8.RuneStart(s[hi]) {
		hi--
	}
	return s[lo:hi]
}

// Parse parses an absolute path expression such as
//
//	/site/regions//item[shipping]/location
//	//s//s[t]/p
//	/a/*[b/c][.//d]/e
//
// The grammar is:
//
//	path    := ('/' | '//') step (('/' | '//') step)*
//	step    := ('*' | name) pred*
//	pred    := '[' relpath ']'
//	relpath := ['.//' | '//'] step (('/' | '//') step)*
//
// Inside predicates the leading axis defaults to child; a leading ".//" (or
// "//", accepted as a convenience) selects the descendant axis. Parse is
// for query text from outside the program and holds it to MaxQueryBytes
// and MaxSteps.
func Parse(input string) (*Path, error) {
	return parse(input, min(len(input), MaxQueryBytes), MaxSteps)
}

// Reparse is Parse without MaxQueryBytes and MaxSteps, for text the program
// rendered itself with Path.String: the rendering of any Path that Parse
// returned or that the program built from labels parses back to the same
// tree, however long it is.
func Reparse(input string) (*Path, error) {
	return parse(input, len(input), math.MaxInt)
}

// parse parses input up to byte end and up to maxSteps steps.
func parse(input string, end, maxSteps int) (*Path, error) {
	// 32 steps hold every simple path of the treebank dataset, the deepest
	// (31 steps, 14.2 on average at factor 0.01); a longer path grows its
	// buffer on the heap by append.
	var steps [32]Step
	p := parser{in: input, end: end, maxSteps: maxSteps}
	path, err := p.parsePath(false, steps[:0])
	if p.end < len(p.in) && p.pos >= p.end {
		// The parse stopped at the byte cap, wherever that was in the
		// grammar, so whatever error it reports there is the cap's.
		p.pos = p.end
		return nil, p.errf("query longer than %d bytes", p.end)
	}
	if err != nil {
		return nil, err
	}
	if rest := p.in[p.pos:]; len(rest) > maxQuote {
		return nil, p.errf("unexpected %d bytes starting %q", len(rest), excerpt(rest, 0))
	} else if rest != "" {
		return nil, p.errf("unexpected %q", rest)
	}
	if len(path.Steps) == 0 {
		return nil, p.errf("empty path")
	}
	return path, nil
}

// MustParse is Parse that panics on error, for tests and fixed queries.
func MustParse(input string) *Path {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	in       string
	pos      int
	end      int // where the parse stops reading: the input's end or the byte cap
	depth    int // predicates open at pos
	nsteps   int // steps begun, predicates' steps included
	maxSteps int
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Input: p.in, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= p.end }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.in[p.pos]
}

// axis consumes '/' or '//' and reports which; ok is false if neither is
// present.
func (p *parser) axis() (Axis, bool) {
	if p.eof() || p.in[p.pos] != '/' {
		return Child, false
	}
	p.pos++
	if !p.eof() && p.in[p.pos] == '/' {
		p.pos++
		return Descendant, true
	}
	return Child, true
}

// isNameByte reports whether b may appear in a node test name. Every byte
// from 0x80 up may, as in encoding/xml's element names, so that every label
// a synopsis interns from a document renders to text that parses back.
func isNameByte(b byte) bool {
	return b == '_' || b == '-' || b == '.' || b == ':' || b == '@' || b >= 0x80 ||
		'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9'
}

func (p *parser) name() (string, error) {
	start := p.pos
	for !p.eof() && isNameByte(p.in[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected name or *")
	}
	return p.in[start:p.pos], nil
}

func (p *parser) parseStep(axis Axis) (Step, error) {
	st := Step{Axis: axis}
	if p.peek() == '*' {
		p.pos++
		st.Wildcard = true
	} else {
		n, err := p.name()
		if err != nil {
			return st, err
		}
		st.Label = n
	}
	// The step's predicates and each predicate's steps collect in arrays
	// on the stack, and only their final lengths are allocated.
	var predBuf [2]*Path
	preds := predBuf[:0]
	for p.peek() == '[' {
		if p.depth == MaxNesting {
			return st, p.errf("predicates nested deeper than %d", MaxNesting)
		}
		p.pos++
		p.depth++
		var steps [4]Step
		pred, err := p.parsePath(true, steps[:0])
		p.depth--
		if err != nil {
			return st, err
		}
		if len(pred.Steps) == 0 {
			return st, p.errf("empty predicate")
		}
		if p.peek() != ']' {
			return st, p.errf("expected ]")
		}
		p.pos++
		preds = append(preds, pred)
	}
	if len(preds) > 0 {
		st.Preds = make([]*Path, len(preds))
		copy(st.Preds, preds)
	}
	return st, nil
}

// parsePath parses a path; relative paths (predicate bodies) allow an
// implicit leading child axis. Its steps collect in steps, a caller's
// buffer, and the path gets a copy of exactly their length.
func (p *parser) parsePath(relative bool, steps []Step) (*Path, error) {
	for first := true; ; first = false {
		start := p.pos
		var ax Axis
		if first && relative {
			// Optional ".//" or "//" prefix selects descendant; "./" is
			// accepted as an explicit child prefix; otherwise the axis is
			// implicit child and the step begins immediately.
			switch {
			case strings.HasPrefix(p.in[p.pos:], ".//"):
				p.pos += 3
				ax = Descendant
			case strings.HasPrefix(p.in[p.pos:], "//"):
				p.pos += 2
				ax = Descendant
			case strings.HasPrefix(p.in[p.pos:], "./"):
				p.pos += 2
				ax = Child
			default:
				ax = Child
			}
		} else {
			var ok bool
			if ax, ok = p.axis(); !ok {
				break
			}
		}
		if p.nsteps == p.maxSteps {
			p.pos = start
			return nil, p.errf("more than %d steps", p.maxSteps)
		}
		p.nsteps++
		st, err := p.parseStep(ax)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	path := &Path{Steps: make([]Step, len(steps))}
	copy(path.Steps, steps)
	return path, nil
}
