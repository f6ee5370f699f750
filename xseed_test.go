package xseed

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xseed/internal/fixtures"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func fig2Doc(t *testing.T) *Document {
	t.Helper()
	d, err := ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseAndStats(t *testing.T) {
	d := fig2Doc(t)
	st := d.Stats()
	if st.Nodes != fixtures.PaperFigure2Nodes {
		t.Errorf("Nodes = %d", st.Nodes)
	}
	if st.MaxRecLevel != 2 || st.Labels != 6 || st.PathCount != 14 {
		t.Errorf("stats = %+v", st)
	}
	if d.NumNodes() != fixtures.PaperFigure2Nodes {
		t.Errorf("NumNodes = %d", d.NumNodes())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseXMLString("<a><b></a>"); err == nil {
		t.Error("malformed XML accepted")
	}
	if _, err := LoadFile("/nonexistent/file.xml"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := Generate("bogus", 1, 0); err == nil {
		t.Error("bogus dataset accepted")
	}
	if _, err := ParseQuery("not a query"); err == nil {
		t.Error("bad query accepted")
	}
}

func TestParseXMLReader(t *testing.T) {
	d, err := ParseXML(strings.NewReader(fixtures.PaperFigure2))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != fixtures.PaperFigure2Nodes {
		t.Errorf("NumNodes = %d", d.NumNodes())
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte(fixtures.PaperFigure2), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != fixtures.PaperFigure2Nodes {
		t.Errorf("NumNodes = %d", d.NumNodes())
	}
}

func TestCountAndEstimateAgree(t *testing.T) {
	d := fig2Doc(t)
	syn, err := BuildSynopsis(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"/a/c/s/p", "//s//s//p", "/a/c/s[t]/p", "//p", "/a/c/s/s/t",
	} {
		actual, err := d.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		est, err := syn.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		// With a full 1BP HET on this small document the estimates are
		// exact or near-exact.
		if math.Abs(est-float64(actual)) > 1 {
			t.Errorf("%s: est %g, actual %d", q, est, actual)
		}
	}
}

func TestKernelOnlyVsHET(t *testing.T) {
	d, err := ParseXMLString(fixtures.PaperFigure4)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := KernelOnly(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildSynopsis(d, &Config{HET: &HETConfig{MBP: 1, BselThreshold: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if bare.HETSizeBytes() != 0 {
		t.Error("kernel-only synopsis has HET bytes")
	}
	if full.HETSizeBytes() == 0 {
		t.Error("full synopsis has empty HET")
	}
	actual, _ := d.Count("/a/b/d/e")
	bareEst, _ := bare.Estimate("/a/b/d/e")
	fullEst, _ := full.Estimate("/a/b/d/e")
	if !approx(bareEst, 20.0*5/14, 1e-9) {
		t.Errorf("bare = %g, want Example 4's 7.14", bareEst)
	}
	if !approx(fullEst, float64(actual), 1e-9) {
		t.Errorf("full = %g, want %d", fullEst, actual)
	}
}

func TestSetBudgetShrinksHET(t *testing.T) {
	d, err := Generate("dblp", 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullSize := syn.SizeBytes()
	resident, total := syn.HETEntries()
	if resident == 0 || total == 0 {
		t.Fatalf("HET entries: %d/%d", resident, total)
	}
	syn.SetBudget(syn.KernelSizeBytes() + 64)
	if got := syn.SizeBytes(); got >= fullSize {
		t.Errorf("SetBudget did not shrink: %d >= %d", got, fullSize)
	}
	r2, _ := syn.HETEntries()
	if r2 > 4 {
		t.Errorf("resident after tiny budget = %d", r2)
	}
	// Estimates still work.
	if _, err := syn.Estimate("/dblp/article"); err != nil {
		t.Fatal(err)
	}
}

func TestFeedbackImprovesEstimate(t *testing.T) {
	d, err := ParseXMLString(fixtures.PaperFigure4)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(d, &Config{HET: &HETConfig{MBP: 0}}) // paths only
	if err != nil {
		t.Fatal(err)
	}
	q := "/a/b/d[f]/e"
	actual, _ := d.Count(q)
	before, _ := syn.Estimate(q)
	if err := syn.Feedback(q, float64(actual)); err != nil {
		t.Fatal(err)
	}
	after, _ := syn.Estimate(q)
	if math.Abs(after-float64(actual)) > math.Abs(before-float64(actual)) {
		t.Errorf("feedback worsened: before %g after %g actual %d", before, after, actual)
	}
}

func TestIncrementalUpdate(t *testing.T) {
	d := fig2Doc(t)
	syn, err := KernelOnly(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := syn.Estimate("/a/u")
	if !approx(before, 1, 1e-9) {
		t.Fatalf("|/a/u| = %g", before)
	}
	if err := syn.AddSubtree([]string{"a"}, "<u/><u/>"); err != nil {
		t.Fatal(err)
	}
	after, _ := syn.Estimate("/a/u")
	if !approx(after, 3, 1e-9) {
		t.Errorf("|/a/u| after add = %g, want 3", after)
	}
	if err := syn.RemoveSubtree([]string{"a"}, "<u/><u/>"); err != nil {
		t.Fatal(err)
	}
	restored, _ := syn.Estimate("/a/u")
	if !approx(restored, 1, 1e-9) {
		t.Errorf("|/a/u| after remove = %g, want 1", restored)
	}
}

func TestSynopsisSerializationRoundTrip(t *testing.T) {
	d, err := ParseXMLString(fixtures.PaperFigure4)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(d, &Config{HET: &HETConfig{MBP: 1, BselThreshold: 0.5}, CardThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := syn.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo returned %d, wrote %d", n, buf.Len())
	}
	loaded, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"/a/b/d/e", "/a/b/d[f]/e", "//d//e", "/a/c/d"} {
		a, _ := syn.Estimate(q)
		b, _ := loaded.Estimate(q)
		if !approx(a, b, 1e-9) {
			t.Errorf("%s: loaded %g != original %g", q, b, a)
		}
	}
	if loaded.KernelSizeBytes() != syn.KernelSizeBytes() {
		t.Error("kernel size changed across serialization")
	}
}

func TestReadSynopsisGarbage(t *testing.T) {
	if _, err := ReadSynopsis(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSynopsis(bytes.NewReader([]byte("xy"))); err == nil {
		t.Error("short input accepted")
	}
	// A future format version must be rejected with a version message, not
	// misparsed as a kernel.
	if _, err := ReadSynopsis(bytes.NewReader([]byte{'X', 'S', 'N', 'P', 99})); err == nil ||
		!strings.Contains(err.Error(), "version 99") {
		t.Errorf("future version error = %v", err)
	}
}

// TestSnapshotWriteToVersioned pins the v2 stream header so the on-disk
// format cannot drift silently.
func TestSnapshotWriteToVersioned(t *testing.T) {
	d := fig2Doc(t)
	syn, err := BuildSynopsis(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := syn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	head := buf.Bytes()[:5]
	want := []byte{'X', 'S', 'N', 'P', SnapshotVersion}
	if !bytes.Equal(head, want) {
		t.Fatalf("stream header = %v, want %v", head, want)
	}
}

// TestReadSynopsisHugeHETCount: a snapshot whose HET header claims 2^28
// entries and then ends is an error that allocates for what was read.
func TestReadSynopsisHugeHETCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSynopsis(bytes.NewReader(fixtures.SnapshotHugeHETCount))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated snapshot decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(fixtures.SnapshotHugeHETCount), n)
	}
}

// TestReadSynopsisV1Fixture guards back-compat: the checked-in v1 snapshot
// (written byte-for-byte by the pre-versioning build, no format header) must
// keep loading under the versioned reader with its state intact.
func TestReadSynopsisV1Fixture(t *testing.T) {
	if len(fixtures.SynopsisV1) == 0 {
		t.Fatal("empty v1 fixture")
	}
	if !bytes.HasPrefix(fixtures.SynopsisV1, []byte("XSK1")) {
		t.Fatalf("fixture is not a v1 stream (starts %q)", fixtures.SynopsisV1[:4])
	}
	syn, err := ReadSynopsis(bytes.NewReader(fixtures.SynopsisV1))
	if err != nil {
		t.Fatalf("v1 snapshot no longer loads: %v", err)
	}
	resident, total := syn.HETEntries()
	if resident != 14 || total != 14 {
		t.Errorf("HET entries = %d/%d, want 14/14", resident, total)
	}
	for q, want := range map[string]float64{
		"/a/c/s/s/t": 2,  // fed back into the fixture
		"//s//p":     14, // fed back into the fixture
		"/a/c/s":     5,
		"//s//s//p":  5,
	} {
		got, err := syn.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, want, 1e-9) {
			t.Errorf("%s = %g, want %g", q, got, want)
		}
	}
	// A v1 load re-serializes in the current format and must round-trip.
	var buf bytes.Buffer
	if _, err := syn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := syn.Estimate("//s//p")
	b, _ := again.Estimate("//s//p")
	if !approx(a, b, 1e-9) {
		t.Errorf("v1→v2 round trip changed estimate: %g != %g", b, a)
	}
}

// TestSnapshotBytesPinned pins the stream bytes of five generated
// synopses, so neither construction nor the format drifts silently. The
// treebank rows cover thousands of branching candidates: at 1BP and 2BP
// with the paper's card threshold of 20, and at 1BP with the experiments'
// proportional threshold.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, c := range []struct {
		dataset string
		cfg     *Config
		sha256  string
		size    int
	}{
		{"xmark", &Config{HET: &HETConfig{MBP: 1}},
			"94bd8d28e53e49d0d700fd4c44d27f33da73536da7b0be9a59cf71f0e2632d56", 7441},
		{"treebank", &Config{CardThreshold: 20, HET: &HETConfig{MBP: 1}},
			"78d9629756477d247d5ec535d135a796aba205694033407f68d8bf2e7cfb6b4c", 202233},
		{"treebank", &Config{CardThreshold: 20, HET: &HETConfig{MBP: 2}},
			"478d0abe698ec255e741e35a2cfb9ba2c9e86d59979ac91fa08484fa841788ff", 234829},
		{"treebank", &Config{CardThreshold: 0.2, HET: &HETConfig{MBP: 1}},
			"ad350bebdf61d739e5a0ecb04d817ddc77775bcf1a1fbd581d6cbf5d6f81b3a5", 324410},
		{"dblp", &Config{HET: &HETConfig{MBP: 2}},
			"dfa95c66c591ce3aca32d5a125ea98af1fead7a768f46942b73dd548b27212f8", 31294},
	} {
		d, err := Generate(c.dataset, 0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		syn, err := BuildSynopsis(d, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := syn.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.sha256 || buf.Len() != c.size {
			t.Errorf("%s: %d bytes hashing to %s, want %d bytes hashing to %s", c.dataset, buf.Len(), got, c.size, c.sha256)
		}
	}
}

// TestBuildSynopsisAllocBudget is construction's allocation budget: a 1BP
// synopsis of treebank ×0.01 at card threshold 20 (2,249 branching
// candidates) allocates at most 8 MB, least of 3 builds. Counting each
// candidate from its parent path's extent takes about 4 MB; evaluating each
// candidate's query from the document root would take some 60 MB more.
func TestBuildSynopsisAllocBudget(t *testing.T) {
	d, err := Generate("treebank", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		n := allocated(func() {
			if _, err := BuildSynopsis(d, &Config{CardThreshold: 20, HET: &HETConfig{MBP: 1}}); err != nil {
				t.Fatal(err)
			}
		})
		if n < least {
			least = n
		}
	}
	t.Logf("BuildSynopsis(treebank ×0.01, card 20, 1BP): %d B (least of 3)", least)
	if least > 8<<20 {
		t.Fatalf("BuildSynopsis allocated %d B, budget 8 MiB", least)
	}
}

// TestSnapshotRetiredFlagByte: the last byte of the options block held an
// EPT-reuse flag that nothing reads any more. A stream with it set loads
// and estimates as before, and re-encodes with it cleared.
func TestSnapshotRetiredFlagByte(t *testing.T) {
	syn, err := BuildSynopsis(fig2Doc(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := syn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	if b := clean[len(clean)-1]; b != 0 {
		t.Fatalf("retired flag byte written as %d, want 0", b)
	}
	flagged := bytes.Clone(clean)
	flagged[len(flagged)-1] = 1
	loaded, err := ReadSynopsis(bytes.NewReader(flagged))
	if err != nil {
		t.Fatalf("a stream with the retired flag set no longer loads: %v", err)
	}
	for _, q := range []string{"/a/c/s/s/t", "/a/c/s[t]/p", "//s//p", "//*"} {
		want, _ := syn.Estimate(q)
		if got, _ := loaded.Estimate(q); got != want {
			t.Errorf("%s = %g after the load, want %g", q, got, want)
		}
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), clean) {
		t.Errorf("re-encoding kept the retired flag: last byte %d", again.Bytes()[again.Len()-1])
	}
}

// TestCardThresholdRange: the stream stores the threshold in whole
// millionths, rounded; BuildSynopsis refuses thresholds it cannot store
// exactly and ReadSynopsis refuses such fields, so every stream the writer
// emits decodes and re-encodes to itself.
func TestCardThresholdRange(t *testing.T) {
	d := fig2Doc(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 3e9, -3e9} {
		if _, err := BuildSynopsis(d, &Config{CardThreshold: bad}); err == nil {
			t.Errorf("BuildSynopsis accepted card threshold %v", bad)
		}
	}
	syn, err := BuildSynopsis(d, &Config{CardThreshold: 0.003919})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := syn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	field := stream[len(stream)-17:]
	if got := int64(binary.LittleEndian.Uint64(field)); got != 3919 {
		t.Errorf("threshold 0.003919 stored as %d millionths, want 3919", got)
	}
	for _, c := range []struct {
		micros int64
		ok     bool
	}{{1<<51 - 1, true}, {-(1<<51 - 1), true}, {1 << 51, false}, {-1 << 51, false}, {math.MinInt64, false}} {
		binary.LittleEndian.PutUint64(field, uint64(c.micros))
		loaded, err := ReadSynopsis(bytes.NewReader(stream))
		if (err == nil) != c.ok {
			t.Errorf("threshold field %d: err = %v, want ok = %v", c.micros, err, c.ok)
			continue
		}
		if err != nil {
			continue
		}
		var again bytes.Buffer
		if _, err := loaded.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), stream) {
			t.Errorf("threshold field %d did not re-encode to itself", c.micros)
		}
	}
}

// TestFeedbackDeltaReplay asserts the durability contract behind O(delta)
// persistence: applying the extracted HETDelta to a second synopsis
// reproduces the fed-back synopsis's estimates without re-estimation.
func TestFeedbackDeltaReplay(t *testing.T) {
	build := func() *Synopsis {
		d := fig2Doc(t)
		syn, err := BuildSynopsis(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		return syn
	}
	fed, replica := build(), build()
	// One simple path (stores an actual cardinality) and one leaf-branching
	// pattern (stores a correlated backward selectivity).
	for q, actual := range map[string]float64{"/a/c/s/s/t": 2, "/a/c/s[t]/p": 7} {
		pq, err := ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		_, delta, applied := fed.FeedbackQueryDeltaDeferred(pq, actual)
		if !applied {
			t.Fatalf("feedback %s not applied", q)
		}
		fed.Publish()
		replica.ApplyHETDelta(delta)
	}
	for _, q := range []string{"/a/c/s/s/t", "/a/c/s[t]/p", "/a/c/s", "//s//s//p"} {
		a, _ := fed.Estimate(q)
		b, _ := replica.Estimate(q)
		if !approx(a, b, 1e-9) {
			t.Errorf("%s: replica %g != fed %g", q, b, a)
		}
	}
}

func TestWithoutPredicates(t *testing.T) {
	q := MustParseQuery("/a/b[c][d]/e[f]")
	if got := q.WithoutPredicates().String(); got != "/a/b/e" {
		t.Errorf("WithoutPredicates = %s", got)
	}
	if q.String() != "/a/b[c][d]/e[f]" {
		t.Error("original mutated")
	}
}

func TestFeedbackOnlySynopsis(t *testing.T) {
	d := fig2Doc(t)
	syn, err := BuildSynopsis(d, &Config{HET: &HETConfig{FeedbackOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r, total := syn.HETEntries(); r != 0 || total != 0 {
		t.Fatalf("feedback-only synopsis starts with %d/%d entries", r, total)
	}
	// Feedback populates it.
	if err := syn.Feedback("/a/c/s[t]/p", 4); err != nil {
		t.Fatal(err)
	}
	if _, total := syn.HETEntries(); total != 1 {
		t.Errorf("entries after feedback = %d, want 1", total)
	}
	got, _ := syn.Estimate("/a/c/s[t]/p")
	if !approx(got, 4, 0.5) {
		t.Errorf("estimate after feedback = %g, want ≈4", got)
	}
}

func TestQueryAPI(t *testing.T) {
	q := MustParseQuery("//regions/australia/item[shipping]/location")
	if q.Class() != "CP" {
		t.Errorf("Class = %s", q.Class())
	}
	if q.IsRecursive() {
		t.Error("not recursive")
	}
	if q.String() != "//regions/australia/item[shipping]/location" {
		t.Errorf("String = %s", q)
	}
	if _, ok := q.Actual(); ok {
		t.Error("hand-parsed query claims an actual")
	}
	r := MustParseQuery("//s//s")
	if !r.IsRecursive() {
		t.Error("//s//s should be recursive")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParseQuery on garbage did not panic")
		}
	}()
	MustParseQuery("((")
}

func TestWorkloadAPI(t *testing.T) {
	d, err := Generate("xmark", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp := d.SimplePathQueries(0)
	if len(sp) == 0 {
		t.Fatal("no SP queries")
	}
	for _, q := range sp[:min(5, len(sp))] {
		act, ok := q.Actual()
		if !ok {
			t.Fatalf("%s has no actual", q)
		}
		got, _ := d.Count(q.String())
		if got != act {
			t.Errorf("%s: actual %d, recount %d", q, act, got)
		}
	}
	bp, err := d.RandomWorkload("BP", 10, 1, 5)
	if err != nil || len(bp) != 10 {
		t.Fatalf("BP workload: %v, %d", err, len(bp))
	}
	cp, err := d.RandomWorkload("cp", 10, 1, 5)
	if err != nil || len(cp) != 10 {
		t.Fatalf("CP workload: %v, %d", err, len(cp))
	}
	if _, err := d.RandomWorkload("XX", 1, 1, 1); err == nil {
		t.Error("bad class accepted")
	}
}

// TestDocumentPastQueryCaps: a document may nest deeper, and its rooted
// paths run longer, than a client's query may (xpath.MaxSteps,
// xpath.MaxQueryBytes). Every query the program builds from such a
// document's labels still works: the 1BP hyper-edge candidates counted
// while the synopsis builds (p has one child x among eleven, below the
// default 0.1 bsel threshold, so p[x]/y is one), the simple-path workload,
// the generated BP workload, and compiled plans that rebuild their parse
// tree from their normalized text.
func TestDocumentPastQueryCaps(t *testing.T) {
	nested := func(labels []string) string {
		var b strings.Builder
		b.WriteString("<r>")
		for _, l := range labels {
			b.WriteString("<" + l + ">")
		}
		b.WriteString(strings.Repeat("<p><y/></p>", 10) + "<p><x/><y/></p>")
		for i := len(labels) - 1; i >= 0; i-- {
			b.WriteString("</" + labels[i] + ">")
		}
		b.WriteString("</r>")
		return b.String()
	}
	labels := func(n int, name func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = name(i)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		labels []string
	}{
		{"300 levels", labels(300, func(i int) string { return fmt.Sprintf("a%d", i) })},
		{"50 levels of 90-byte names", labels(50, func(i int) string { return fmt.Sprintf("%s%02d", strings.Repeat("n", 88), i) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ParseXMLString(nested(tc.labels))
			if err != nil {
				t.Fatal(err)
			}
			syn, err := BuildSynopsis(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			sp := d.SimplePathQueries(0)
			if len(sp) != d.Stats().PathCount {
				t.Fatalf("%d simple paths, want all %d", len(sp), d.Stats().PathCount)
			}
			bp, err := d.RandomWorkload("BP", 50, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			sn := syn.Snapshot()
			deepest := sp[0]
			for _, q := range append(sp, bp...) {
				if q.p.NumSteps() > deepest.p.NumSteps() {
					deepest = q
				}
				pl := sn.Compile(q)
				want := sn.EstimateQuery(q)
				if got := pl.Run(sn); got != want {
					t.Errorf("%d-step %s: plan %g, estimate %g", q.p.NumSteps(), q.Class(), got, want)
				}
			}
			if n := deepest.p.NumSteps(); n != len(tc.labels)+3 {
				t.Errorf("deepest simple path has %d steps, want %d", n, len(tc.labels)+3)
			}
			if act, _ := deepest.Actual(); sn.EstimateQuery(deepest) != float64(act) {
				t.Errorf("deepest simple path estimates %g, actual %d", sn.EstimateQuery(deepest), act)
			}
			if _, err := ParseQuery(deepest.String()); err == nil {
				t.Errorf("a %d-step, %d-byte query parsed from a client", deepest.p.NumSteps(), len(deepest.String()))
			}
			// A subtree with a new label grows the dictionary, so the
			// deepest path's plan recompiles from its normalized text.
			pl := sn.Compile(deepest)
			if err := syn.AddSubtree([]string{"r"}, "<fresh/>"); err != nil {
				t.Fatal(err)
			}
			next := syn.Snapshot()
			if pl.CompatibleWith(next) {
				t.Fatal("a new label left the plan compatible")
			}
			if got, want := pl.Run(next), next.EstimateQuery(deepest); got != want {
				t.Errorf("recompiled plan of the deepest simple path %g, estimate %g", got, want)
			}
		})
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	d := fig2Doc(t)
	var buf bytes.Buffer
	if err := d.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseXMLString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumNodes() != d.NumNodes() {
		t.Errorf("round trip %d != %d", d2.NumNodes(), d.NumNodes())
	}
}

func TestEPTStats(t *testing.T) {
	d := fig2Doc(t)
	syn, _ := KernelOnly(d, nil)
	if _, err := syn.Estimate("//p"); err != nil {
		t.Fatal(err)
	}
	nodes, truncated := syn.EPTStats()
	if nodes != 14 || truncated {
		t.Errorf("EPT stats = %d/%v, want 14/false", nodes, truncated)
	}
	if !strings.Contains(syn.KernelString(), "(s,p) = (5:9, 1:2, 2:3)") {
		t.Error("KernelString missing paper edge")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestReplayNewLabelThenEstimate is the regression test for the
// publish-shortcut bug: Replay applies subtree records to the kernel in
// place, so a replayed fragment that interns a brand-new label leaves the
// kernel pointer unchanged while the dictionary grows — the post-Replay
// publish must not reuse the pre-Replay frozen dictionary, or the first
// estimate panics resolving the new label during EPT construction.
func TestReplayNewLabelThenEstimate(t *testing.T) {
	d, err := ParseXMLString("<a><b><c/></b></a>")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := BuildSynopsis(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := syn.Estimate("/a/b"); err != nil { // pin a pre-replay snapshot path
		t.Fatal(err)
	}
	err = syn.Replay(func() error {
		if err := syn.Feedback("/a/b/c", 5); err != nil {
			return err
		}
		// Brand-new labels: the replayed fragment interns "z" and "w".
		return syn.AddSubtree([]string{"a"}, "<z><w/></z>")
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := syn.Estimate("/a/z/w")
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("/a/z/w after replay = %v, want 1", got)
	}
	if got, err := syn.Estimate("/a/b/c"); err != nil || got != 5 {
		t.Fatalf("/a/b/c after replayed feedback = %v (%v), want 5", got, err)
	}
	// One Replay = one published version on top of the initial snapshot.
	if v := syn.Snapshot().Version(); v != 2 {
		t.Fatalf("version after replay = %d, want 2 (batched publication)", v)
	}
}
