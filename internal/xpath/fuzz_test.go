package xpath

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRoundTrip: any input that parses renders to text that Reparse
// takes back to the same tree, which renders the same and classifies the
// same. Compiled query plans keep only that text and rebuild their parse
// tree from it.
// Any input that does not parse gets an error message, short when the
// input is long: the servers put it in a response.
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range []string{
		"/a", "//a", "/a/*", "//*", "/*/*//*", "/a/b//c",
		"/a[b]", "/a[b][c]/d", "/a[b[c[d]]]/e", "/a/*[b/c][.//d]/e",
		"/a[//b]", "/a/c[.//p]", "/a[.//b[c]//d]//e[f][*]",
		"//site/regions//item[shipping][incategory]/location",
		"/a[./b]", "/a[.]", "/a[././/b]", "/café[ü]", "/a:b/@c",
		"/a" + strings.Repeat("[b", MaxNesting) + strings.Repeat("]", MaxNesting),
		"/a" + strings.Repeat("[.//b", MaxNesting+1) + strings.Repeat("]", MaxNesting+1),
		strings.Repeat("\x80", maxQuote+1), "/a]" + strings.Repeat("\x80", 2*maxQuote),
		// At and past the caps, and renderings that grow past the byte cap.
		strings.Repeat("/a", MaxSteps), strings.Repeat("/a", MaxSteps+1),
		"/a" + strings.Repeat("[b]", MaxSteps), "/" + strings.Repeat("a", MaxQueryBytes),
		"/" + strings.Repeat("a", MaxQueryBytes-7) + "[//b]",
		"/" + strings.Repeat("a", MaxQueryBytes-6) + "[//b]",
		"/" + strings.Repeat("a", MaxQueryBytes-5) + "[.]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		p, err := Parse(in)
		if err != nil {
			// Each of the message's two quotes holds at most maxQuote
			// bytes of the input, each at most 4 bytes once escaped.
			if msg := err.Error(); len(in) > maxQuote && len(msg) > 16*maxQuote {
				t.Fatalf("a %d-byte input gets a %d-byte message", len(in), len(msg))
			}
			return
		}
		s := p.String()
		q, err := Reparse(s)
		if err != nil {
			t.Fatalf("%q renders %q, which does not parse: %v", in, s, err)
		}
		if s2 := q.String(); s2 != s {
			t.Fatalf("%q renders %q, which renders %q", in, s, s2)
		}
		if q.Classify() != p.Classify() {
			t.Fatalf("%q is %v, its rendering %q is %v", in, p.Classify(), s, q.Classify())
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("%q and its rendering %q parse to different trees", in, s)
		}
	})
}
