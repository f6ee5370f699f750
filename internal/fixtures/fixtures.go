// Package fixtures holds the paper's running examples as shared test data:
// the Figure 2(a) XML tree (whose XSEED kernel is Figure 2(b)) and the
// Figure 4 kernel used by Examples 4 and 5 and Table 1 — plus a checked-in
// v1 synopsis snapshot guarding serialization back-compat.
package fixtures

import _ "embed"

// SynopsisV1 is a synopsis snapshot in the v1 stream format (no "XSNP"
// header; the stream begins with the kernel's "XSK1" magic), written by the
// pre-versioning build from PaperFigure2 with default config plus two
// feedback calls: ("/a/c/s/s/t", 2) and ("//s//p", 14). It is frozen
// byte-for-byte: xseed.ReadSynopsis must keep loading it unchanged, because
// real deployments hold snapshots written by old builds. Expected state:
// 14/14 HET entries; estimates /a/c/s/s/t=2, //s//p=14, /a/c/s=5,
// //s//s//p=5.
//
//go:embed testdata/synopsis_v1.snap
var SynopsisV1 []byte

// SnapshotHugeHETCount is a 23-byte synopsis snapshot whose hyper-edge
// table header claims 2^28 entries and then ends: "XSNP" v2, an empty
// kernel, HET flag 1, "XSH1", budget 0, count 2^28. A decoder must reject it
// without allocating for the claimed count.
var SnapshotHugeHETCount = []byte("XSNP\x02" + "XSK1\x00\x00\x00" + "\x01" + "XSH1\x00\x80\x80\x80\x80\x01")

// PaperFigure2 is an XML instance consistent with the paper's Figure 2:
// building its XSEED kernel yields exactly the edge labels of Figure 2(b):
//
//	(a,t) = (1:1)            (a,u) = (1:1)          (a,c) = (1:2)
//	(c,t) = (2:2)            (c,p) = (2:3)          (c,s) = (2:5)
//	(s,t) = (2:2, 1:1)       (s,p) = (5:9, 1:2, 2:3)
//	(s,s) = (0:0, 2:2, 1:2)
//
// It also satisfies every number in the paper's worked examples: the
// expanded path tree dump in Section 4, the Example 3 estimation trace for
// /a/c/s/s/t, and Observation 3's |//s//s//p| = 5.
const PaperFigure2 = `<a>
  <t/>
  <u/>
  <c>
    <t/>
    <p/>
    <s><t/><p/><p/></s>
    <s><p/><p/>
      <s><t/><p/><p/>
        <s><p/><p/></s>
        <s><p/></s>
      </s>
    </s>
  </c>
  <c>
    <t/>
    <p/><p/>
    <s><p/><p/><s/></s>
    <s><t/><p/><p/></s>
    <s><p/></s>
  </c>
</a>`

// PaperFigure2Nodes is the element count of PaperFigure2.
const PaperFigure2Nodes = 36

// PaperFigure4 is an XML instance consistent with the paper's Figure 4
// kernel (all recursion level 0):
//
//	(a,b) = (2:5)   (a,c) = (3:9)   (b,d) = (1:3)... — see below.
//
// Figure 4's kernel is:
//
//	a → b (2:5), a → c (3:9), b → d (1:3), c → d (1:4),
//	d → e (4:50) ... (paper label (4:50) appears on (d,e)), d → f (3:20).
//
// The figure labels as printed are: (a,b)=(2:5)?? The paper lists
// (4:50) on (d,e), (2:5) and (3:9) on the two a-edges, (1:3), (1:4) on the
// b/c→d edges, and (3:20) on (d,f). Example 4 computes
// |b/d/e| = 20 × 5/14 using e(d,e)[0].C = 20, e(b,d)[0].C = 5,
// e(c,d)[0].C = 9; so the printed (2:5) belongs to (b,d) and (3:9) to
// (c,d), while (4:50) is (d,f)... Example 5 uses e(d,f)[0].P = 4 and
// denominator 14 = 5 + 9. We therefore fix the kernel as:
//
//	(a,b) = (1:3)    (a,c) = (1:4)
//	(b,d) = (2:5)    (c,d) = (3:9)
//	(d,e) = (3:20)   (d,f) = (4:50)
//
// which reproduces Example 4 (|b/d/e| ≈ 20 × 5/14 = 7.14) and Example 5
// (|b/d[f]/e| ≈ 20 × 5/14 × 4/14 = 2.04) exactly.
//
// This instance realizes those counts: 1 a root; 3 b children and 4 c
// children; 2 of the b's have d children (5 total), 3 of the c's have d
// children (9 total); of the 14 d's, 3 have e children (20 total) and 4
// have f children (50 total).
var PaperFigure4 = buildFigure4()

func buildFigure4() string {
	rep := func(s string, n int) string {
		out := ""
		for i := 0; i < n; i++ {
			out += s
		}
		return out
	}
	// b1: 3 d's (d with 8 e's + 20 f's; d with 12 e's; d plain)
	// b2: 2 d's (d with 15 f's; d plain)
	// b3: no d
	// c1: 4 d's (d with 10 f's; d plain ×3)
	// c2: 3 d's (d with 5 f's; d plain ×2)
	// c3: 2 d's (d plain ×2)
	// c4: no d
	// e-parents: 2 (8+12=20 e's)... need 3 d's with e (total 20): 8 + 10 + 2.
	b1 := "<b>" +
		"<d>" + rep("<e/>", 8) + rep("<f/>", 20) + "</d>" +
		"<d>" + rep("<e/>", 10) + "</d>" +
		"<d/>" +
		"</b>"
	b2 := "<b>" +
		"<d>" + rep("<f/>", 15) + "</d>" +
		"<d/>" +
		"</b>"
	b3 := "<b/>"
	c1 := "<c>" +
		"<d>" + rep("<f/>", 10) + "</d>" +
		"<d>" + rep("<e/>", 2) + "</d>" +
		"<d/><d/>" +
		"</c>"
	c2 := "<c>" +
		"<d>" + rep("<f/>", 5) + "</d>" +
		"<d/><d/>" +
		"</c>"
	c3 := "<c><d/><d/></c>"
	c4 := "<c/>"
	return "<a>" + b1 + b2 + b3 + c1 + c2 + c3 + c4 + "</a>"
}
