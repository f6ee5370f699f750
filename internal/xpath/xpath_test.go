package xpath

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParseSimple(t *testing.T) {
	q := MustParse("/a/c/s/s/t")
	if len(q.Steps) != 5 {
		t.Fatalf("steps = %d, want 5", len(q.Steps))
	}
	for i, want := range []string{"a", "c", "s", "s", "t"} {
		if q.Steps[i].Label != want || q.Steps[i].Axis != Child || q.Steps[i].Wildcard {
			t.Errorf("step %d = %+v, want child::%s", i, q.Steps[i], want)
		}
	}
	if got := q.Classify(); got != SimplePath {
		t.Errorf("class = %v, want SP", got)
	}
	if q.IsRecursive() {
		t.Error("simple path reported recursive")
	}
	if got := q.String(); got != "/a/c/s/s/t" {
		t.Errorf("String = %q", got)
	}
}

func TestParsePaperSampleQuery(t *testing.T) {
	// The sample CP query from Section 6.1.
	q := MustParse("//regions/australia/item[shipping]/location")
	if len(q.Steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(q.Steps))
	}
	if q.Steps[0].Axis != Descendant {
		t.Error("first step should be descendant axis")
	}
	if len(q.Steps[2].Preds) != 1 {
		t.Fatalf("item should have 1 predicate")
	}
	pred := q.Steps[2].Preds[0]
	if len(pred.Steps) != 1 || pred.Steps[0].Label != "shipping" || pred.Steps[0].Axis != Child {
		t.Errorf("predicate = %+v, want child::shipping", pred.Steps[0])
	}
	if got := q.Classify(); got != ComplexPath {
		t.Errorf("class = %v, want CP", got)
	}
	if got := q.String(); got != "//regions/australia/item[shipping]/location" {
		t.Errorf("String = %q", got)
	}
}

func TestParseBranching(t *testing.T) {
	q := MustParse("/dblp/article[pages]/publisher")
	if got := q.Classify(); got != BranchingPath {
		t.Errorf("class = %v, want BP", got)
	}
	if got := q.MaxPredsPerStep(); got != 1 {
		t.Errorf("MaxPredsPerStep = %d, want 1", got)
	}
}

func TestParseNestedAndMultiPredicates(t *testing.T) {
	q := MustParse("/a/b[c/e][.//d]/f[g[h]]")
	if got := q.MaxPredsPerStep(); got != 2 {
		t.Errorf("MaxPredsPerStep = %d, want 2", got)
	}
	b := q.Steps[1]
	if len(b.Preds) != 2 {
		t.Fatalf("b preds = %d, want 2", len(b.Preds))
	}
	if b.Preds[0].Steps[0].Label != "c" || b.Preds[0].Steps[1].Label != "e" {
		t.Errorf("first pred = %v", b.Preds[0])
	}
	if b.Preds[1].Steps[0].Axis != Descendant || b.Preds[1].Steps[0].Label != "d" {
		t.Errorf("second pred should be .//d, got %v", b.Preds[1].Steps[0])
	}
	f := q.Steps[2]
	if len(f.Preds) != 1 || len(f.Preds[0].Steps[0].Preds) != 1 {
		t.Error("nested predicate g[h] not parsed")
	}
	if got := q.String(); got != "/a/b[c/e][.//d]/f[g[h]]" {
		t.Errorf("String = %q", got)
	}
}

func TestParseWildcard(t *testing.T) {
	q := MustParse("/a/*/b")
	if !q.Steps[1].Wildcard {
		t.Error("wildcard not parsed")
	}
	if got := q.Classify(); got != ComplexPath {
		t.Errorf("class = %v, want CP (wildcards are complex)", got)
	}
	if got := q.String(); got != "/a/*/b" {
		t.Errorf("String = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "a/b", "/", "//", "/a[", "/a[]", "/a[b", "/a]b", "/a//",
		"/a[b]]", "/a/[b]", "/a b",
	}
	for _, in := range bad {
		if q, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %v, want error", in, q)
		}
	}
}

// nested returns "/a" with depth predicates nested inside one another.
func nested(depth int) string {
	return "/a" + strings.Repeat("[b", depth) + strings.Repeat("]", depth)
}

// TestParseNestingCap: predicates nest at most MaxNesting deep, and the
// error names the '[' that opens one level too many.
func TestParseNestingCap(t *testing.T) {
	q, err := Parse(nested(MaxNesting))
	if err != nil {
		t.Fatalf("nested %d deep: %v", MaxNesting, err)
	}
	if s := q.String(); s != nested(MaxNesting) {
		t.Fatalf("nested %d deep renders %q", MaxNesting, s)
	}
	for _, depth := range []int{MaxNesting + 1, 3_300_000} {
		_, err := Parse(nested(depth))
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("nested %d deep: err = %v, want a *ParseError", depth, err)
		}
		if want := len("/a") + 2*MaxNesting; pe.Pos != want {
			t.Errorf("nested %d deep: error at offset %d, want %d (the '[' opening level %d)", depth, pe.Pos, want, MaxNesting+1)
		}
		if depth > 1000 && len(pe.Error()) > 200 {
			t.Errorf("nested %d deep: message is %d bytes, want a short excerpt", depth, len(pe.Error()))
		}
	}
}

// TestParseErrorQuotesExcerpt: a short query is quoted whole; a long one
// only around the error, and its unparsed tail only by its start, so that
// the message stays short whatever the query's bytes.
func TestParseErrorQuotesExcerpt(t *testing.T) {
	_, err := Parse("/a[")
	if want := `xpath: parse "/a[" at offset 3: expected name or *`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	_, err = Parse("/a]b")
	if want := `xpath: parse "/a]b" at offset 2: unexpected "]b"`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	unterminated := "/" + strings.Repeat("é", MaxQueryBytes/2-1) + "[" // at the byte cap
	trailing := "/a]" + strings.Repeat("x", 1<<20)
	for _, tc := range []struct {
		in   string
		want []string // in the message
	}{
		{unterminated, []string{fmt.Sprintf("%d-byte query at offset %d", len(unterminated), len(unterminated)), `é["`}},
		{trailing, []string{fmt.Sprintf("%d-byte query at offset 2", len(trailing)), fmt.Sprintf(`unexpected %d bytes starting "]xxx`, len(trailing)-2)}},
		// Not UTF-8: the excerpt must not run past either end of the input.
		{strings.Repeat("\x80", maxQuote+1), []string{"at offset 0"}},
		{"/a[" + strings.Repeat("\x80", 3*maxQuote) + "\x01", []string{"expected ]"}},
	} {
		_, err := Parse(tc.in)
		if err == nil {
			t.Fatalf("%d-byte query parsed", len(tc.in))
		}
		msg := err.Error()
		if len(msg) > 300 {
			t.Errorf("%d-byte query: message is %d bytes, want a short excerpt", len(tc.in), len(msg))
		}
		for _, w := range tc.want {
			if !strings.Contains(msg, w) {
				t.Errorf("%d-byte query: message %.300q does not contain %q", len(tc.in), msg, w)
			}
		}
	}
}

// TestParseCaps: a query may be MaxQueryBytes long and hold MaxSteps steps,
// predicates' steps included; one byte or one step more is a ParseError at
// the first byte past the cap, however long the rest of the query is.
// Reparse, for text the program rendered itself, takes every one of them.
func TestParseCaps(t *testing.T) {
	name := func(n int) string { return "/" + strings.Repeat("a", n-1) } // one step, n bytes
	preds := func(n int) string { return "/a" + strings.Repeat("[b]", n) }
	for _, tc := range []struct {
		in     string
		offset int // of the error; -1: parses
	}{
		{name(MaxQueryBytes), -1},
		{name(MaxQueryBytes + 1), MaxQueryBytes},
		{name(1 << 24), MaxQueryBytes},
		{strings.Repeat("/a", MaxSteps), -1},
		{strings.Repeat("/a", MaxSteps+1), 2 * MaxSteps},
		{strings.Repeat("/a", 1<<23), 2 * MaxSteps},
		{preds(MaxSteps - 1), -1},
		{preds(MaxSteps), len(preds(MaxSteps-1)) + 1}, // the b past the cap
		// A prefix that reads across the cap stops at it.
		{name(MaxQueryBytes-2) + "[.//b]", MaxQueryBytes},
		// "//" opening a predicate renders as ".//", one byte more: a query
		// at the cap may render past it.
		{name(MaxQueryBytes-5) + "[//b]", -1},
		// An error before the cap is reported as it is.
		{"/a]" + name(MaxQueryBytes), 2},
	} {
		q, err := Parse(tc.in)
		if tc.offset >= 0 {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("%d-byte query: err = %v, want a *ParseError", len(tc.in), err)
			} else if pe.Pos != tc.offset {
				t.Errorf("%d-byte query: error at offset %d, want %d: %v", len(tc.in), pe.Pos, tc.offset, err)
			}
			if tc.offset == 2 || len(tc.in) > 4*MaxQueryBytes {
				continue // a syntax error, or too long to parse whole cheaply
			}
			if q, err = Reparse(tc.in); err != nil {
				t.Errorf("%d-byte query: Reparse: %v", len(tc.in), err)
				continue
			}
		} else if err != nil {
			t.Errorf("%d-byte query: %v", len(tc.in), err)
			continue
		}
		s := q.String()
		if r, err := Reparse(s); err != nil || !reflect.DeepEqual(r, q) {
			t.Errorf("%d-byte query renders %d bytes that Reparse does not take back: %v", len(tc.in), len(s), err)
		}
	}
}

// rendered keeps what String returns on the heap, as a caller's would be.
var rendered string

// TestParseAllocatesOnce: each path's steps and each step's predicates are
// allocated once, at their final length, and String allocates once.
func TestParseAllocatesOnce(t *testing.T) {
	if size := unsafe.Sizeof(Step{}); size != 48 {
		t.Errorf("Step is %d bytes, want 48", size)
	}
	long := strings.Repeat("/s", 40) // past Parse's stack buffer
	for _, tc := range []struct {
		in     string
		allocs float64 // per path: the Path and its steps; per step with predicates: its slice
	}{
		{"/a/c/s/s/t", 2},
		{long, 3}, // the buffer grows once on the heap
		{"/a[b][c/d]//e", 2 + 1 + 2 + 2},
	} {
		q := MustParse(tc.in)
		if n := testing.AllocsPerRun(100, func() { MustParse(tc.in) }); n != tc.allocs {
			t.Errorf("Parse(%q) allocates %v objects, want %v", tc.in, n, tc.allocs)
		}
		if n := testing.AllocsPerRun(100, func() { rendered = q.String() }); n != 1 {
			t.Errorf("String of %q allocates %v objects, want 1", tc.in, n)
		}
	}
}

func TestQRL(t *testing.T) {
	cases := []struct {
		in  string
		qrl int
		rec bool
	}{
		{"/a/b/c", 0, false},
		{"/s/s/s", 0, false}, // /-only is never recursive
		{"//s", 0, false},
		{"//s//s", 1, true},
		{"//s//s//s", 2, true},
		{"//s/s", 0, false},
		{"//*//*", 1, true}, // recursive even on non-recursive documents
		{"//a//b", 0, false},
		{"//a[.//b//b]/c", 1, true}, // recursion inside a predicate counts
		{"//s[x]//s", 1, true},
		{"//s//t[//s]", 0, false}, // predicate s is on a different query-tree path? No: rooted path s,t,s — but t breaks the s//s chain only if axis matters; both s have //-axis on the same rooted path
	}
	for _, tc := range cases {
		q := MustParse(tc.in)
		if got := q.QRL(); got != tc.qrl && tc.in != "//s//t[//s]" {
			t.Errorf("QRL(%q) = %d, want %d", tc.in, got, tc.qrl)
		}
		if tc.in == "//s//t[//s]" {
			// Both //s NodeTests lie on the rooted query-tree path
			// s → t → s, so QRL is 1.
			if got := q.QRL(); got != 1 {
				t.Errorf("QRL(%q) = %d, want 1", tc.in, got)
			}
			continue
		}
		if got := q.IsRecursive(); got != tc.rec {
			t.Errorf("IsRecursive(%q) = %v, want %v", tc.in, got, tc.rec)
		}
	}
}

func TestLabels(t *testing.T) {
	q := MustParse("/a/b/c")
	got := q.Labels()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Labels on non-simple path did not panic")
		}
	}()
	MustParse("//a").Labels()
}

func TestCloneIndependence(t *testing.T) {
	q := MustParse("/a/b[c]/d")
	c := q.Clone()
	c.Steps[1].Preds[0].Steps[0].Label = "zzz"
	if q.Steps[1].Preds[0].Steps[0].Label != "c" {
		t.Error("Clone shares predicate storage with original")
	}
	if q.String() == c.String() {
		t.Error("clone edit did not change rendering")
	}
}

// TestRoundTripProperty: parsing the String() of a parsed query yields the
// same rendering (fixed point after one parse).
func TestRoundTripProperty(t *testing.T) {
	inputs := []string{
		"/a", "//a", "/a/b", "/a//b", "/a/*", "//*",
		"/a[b]", "/a[b][c]", "/a[b/c]/d", "/a[.//b]/c",
		"//site/regions//item[shipping][incategory]/location",
		"/a/b[c[d[e]]]/f//g[.//h]",
	}
	for _, in := range inputs {
		q := MustParse(in)
		s := q.String()
		q2, err := Parse(s)
		if err != nil {
			t.Errorf("re-parse %q: %v", s, err)
			continue
		}
		if s2 := q2.String(); s2 != s {
			t.Errorf("round trip %q -> %q -> %q", in, s, s2)
		}
	}
}

// TestQuickParseNeverPanics feeds arbitrary short strings to the parser; it
// must return an error or a query, never panic.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		if len(s) > 64 {
			s = s[:64]
		}
		q, err := Parse(s)
		if err == nil && q == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestClassifyPredicateComplexity(t *testing.T) {
	// A //-axis inside a predicate makes the whole query complex.
	q := MustParse("/a/b[.//c]/d")
	if got := q.Classify(); got != ComplexPath {
		t.Errorf("class = %v, want CP", got)
	}
	// A wildcard inside a predicate too.
	q = MustParse("/a/b[*]/d")
	if got := q.Classify(); got != ComplexPath {
		t.Errorf("class = %v, want CP", got)
	}
}
