package pathtree

import (
	"testing"

	"xseed/internal/fixtures"
	"xseed/internal/xmldoc"
)

func buildFig2(t *testing.T) (*xmldoc.Document, *Tree) {
	t.Helper()
	dict := xmldoc.NewDict()
	pb := NewBuilder(dict)
	doc, err := xmldoc.Build(xmldoc.NewParserString(fixtures.PaperFigure2), dict, pb)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return doc, pb.Tree()
}

func TestCardinalitiesOnFigure2(t *testing.T) {
	_, pt := buildFig2(t)
	cases := []struct {
		path []string
		card int64
	}{
		{[]string{"a"}, 1},
		{[]string{"a", "t"}, 1},
		{[]string{"a", "u"}, 1},
		{[]string{"a", "c"}, 2},
		{[]string{"a", "c", "t"}, 2},
		{[]string{"a", "c", "p"}, 3},
		{[]string{"a", "c", "s"}, 5},
		{[]string{"a", "c", "s", "t"}, 2},
		{[]string{"a", "c", "s", "p"}, 9},
		{[]string{"a", "c", "s", "s"}, 2},
		{[]string{"a", "c", "s", "s", "t"}, 1},
		{[]string{"a", "c", "s", "s", "p"}, 2},
		{[]string{"a", "c", "s", "s", "s"}, 2},
		{[]string{"a", "c", "s", "s", "s", "p"}, 3},
	}
	for _, tc := range cases {
		n := pt.FindNames(tc.path...)
		if n == nil {
			t.Errorf("path %v not in tree", tc.path)
			continue
		}
		if n.Card != tc.card {
			t.Errorf("card(%v) = %d, want %d", tc.path, n.Card, tc.card)
		}
	}
	// The path tree must not contain paths absent from the document.
	if n := pt.FindNames("a", "c", "s", "s", "s", "s"); n != nil {
		t.Error("nonexistent path /a/c/s/s/s/s present in path tree")
	}
	if n := pt.FindNames("a", "p"); n != nil {
		t.Error("nonexistent path /a/p present in path tree")
	}
}

func TestBselOnFigure2(t *testing.T) {
	_, pt := buildFig2(t)
	cases := []struct {
		path []string
		bsel float64
	}{
		{[]string{"a"}, 1},                       // root
		{[]string{"a", "c"}, 1},                  // 1 of 1 a has c
		{[]string{"a", "c", "s"}, 1},             // 2 of 2 c have s
		{[]string{"a", "c", "s", "s"}, 0.4},      // 2 of 5 s have s child
		{[]string{"a", "c", "s", "t"}, 0.4},      // 2 of 5 s have t child
		{[]string{"a", "c", "s", "p"}, 1},        // 5 of 5 s have p child
		{[]string{"a", "c", "s", "s", "t"}, 0.5}, // 1 of 2 s/s has t
		{[]string{"a", "c", "s", "s", "s"}, 0.5}, // 1 of 2 s/s has s
	}
	for _, tc := range cases {
		n := pt.FindNames(tc.path...)
		if n == nil {
			t.Fatalf("path %v not in tree", tc.path)
		}
		if got := n.Bsel(); got != tc.bsel {
			t.Errorf("bsel(%v) = %g, want %g", tc.path, got, tc.bsel)
		}
	}
}

func TestStructure(t *testing.T) {
	_, pt := buildFig2(t)
	if pt.Root == nil || pt.Dict().Name(pt.Root.Label) != "a" {
		t.Fatal("root is not a")
	}
	// Distinct rooted paths in Figure 2: a, a/t, a/u, a/c, a/c/t, a/c/p,
	// a/c/s, a/c/s/{t,p,s}, a/c/s/s/{t,p,s}, a/c/s/s/s/p = 14.
	if got := pt.NumNodes(); got != 14 {
		t.Errorf("NumNodes = %d, want 14", got)
	}
	var walked int
	var cardSum int64
	pt.Walk(func(n *Node) {
		walked++
		cardSum += n.Card
	})
	if walked != pt.NumNodes() {
		t.Errorf("Walk visited %d nodes, want %d", walked, pt.NumNodes())
	}
	// Sum of path tree cardinalities = document node count.
	if cardSum != fixtures.PaperFigure2Nodes {
		t.Errorf("sum of cards = %d, want %d", cardSum, fixtures.PaperFigure2Nodes)
	}
}

func TestPathAndString(t *testing.T) {
	_, pt := buildFig2(t)
	n := pt.FindNames("a", "c", "s", "s")
	if n == nil {
		t.Fatal("path not found")
	}
	if got := n.Query(pt.Dict()).String(); got != "/a/c/s/s" {
		t.Errorf("Query = %q, want /a/c/s/s", got)
	}
	if got := n.Depth; got != 4 {
		t.Errorf("Depth = %d, want 4", got)
	}
	if got := len(n.Path()); got != 4 {
		t.Errorf("len(Path) = %d, want 4", got)
	}
}

func TestFindMisses(t *testing.T) {
	_, pt := buildFig2(t)
	if pt.FindNames() != nil {
		t.Error("empty path should not resolve")
	}
	if pt.FindNames("zzz") != nil {
		t.Error("unknown label should not resolve")
	}
	if pt.FindNames("c") != nil {
		t.Error("non-root start should not resolve")
	}
}

func TestDepthsAndParents(t *testing.T) {
	_, pt := buildFig2(t)
	pt.Walk(func(n *Node) {
		if n.Parent == nil {
			if n.Depth != 1 {
				t.Errorf("root depth = %d", n.Depth)
			}
			return
		}
		if n.Depth != n.Parent.Depth+1 {
			t.Errorf("depth of %s = %d, parent %d", n.Query(pt.Dict()), n.Depth, n.Parent.Depth)
		}
		if n.ParentsWithChild > n.Parent.Card {
			t.Errorf("ParentsWithChild %d exceeds parent card %d at %s",
				n.ParentsWithChild, n.Parent.Card, n.Query(pt.Dict()))
		}
		if n.ParentsWithChild <= 0 {
			t.Errorf("ParentsWithChild = %d at %s, want > 0", n.ParentsWithChild, n.Query(pt.Dict()))
		}
	})
}
