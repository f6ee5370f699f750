package xpath

import (
	"fmt"
	"strings"
)

// ParseError describes a syntax error with its position in the input.
type ParseError struct {
	Input string
	Pos   int
	Msg   string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xpath: parse %q at offset %d: %s", e.Input, e.Pos, e.Msg)
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
// "//", accepted as a convenience) selects the descendant axis.
func Parse(input string) (*Path, error) {
	p := &parser{in: input}
	path, err := p.parsePath(false)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.in) {
		return nil, p.errf("unexpected %q", p.in[p.pos:])
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
	in  string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Input: p.in, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.in) }

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
	for p.peek() == '[' {
		p.pos++
		pred, err := p.parsePath(true)
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
		st.Preds = append(st.Preds, pred)
	}
	return st, nil
}

// parsePath parses a path; relative paths (predicate bodies) allow an
// implicit leading child axis.
func (p *parser) parsePath(relative bool) (*Path, error) {
	path := &Path{}
	first := true
	for {
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
			ax, ok = p.axis()
			if !ok {
				return path, nil
			}
		}
		st, err := p.parseStep(ax)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, st)
		first = false
	}
}
