package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xseed"
	"xseed/internal/fixtures"
)

func buildFig2(t testing.TB) *xseed.Synopsis {
	t.Helper()
	d, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return syn
}

func openStore(t testing.TB, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// feedback applies a feedback to the synopsis and persists the delta, the
// way the registry does.
func feedback(t testing.TB, st *Store, name string, syn *xseed.Synopsis, query string, actual float64) {
	t.Helper()
	q, err := xseed.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	_, delta, applied := syn.FeedbackQueryDeltaDeferred(q, actual)
	syn.Publish()
	if !applied {
		t.Fatalf("feedback %s not applied", query)
	}
	if err := st.AppendFeedback(name, delta); err != nil {
		t.Fatal(err)
	}
}

func estimates(t testing.TB, syn *xseed.Synopsis, queries ...string) []float64 {
	t.Helper()
	out := make([]float64, len(queries))
	for i, q := range queries {
		v, err := syn.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

var probeQueries = []string{"/a/c/s/s/t", "/a/c/s", "//s//p", "//s//s//p", "/a/c/s[t]/p"}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	syn := buildFig2(t)
	created := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	if err := st.SaveBase("fig2", syn, "test", created, 0, 3); err != nil {
		t.Fatal(err)
	}
	feedback(t, st, "fig2", syn, "/a/c/s/s/t", 2)
	feedback(t, st, "fig2", syn, "/a/c/s[t]/p", 7)
	if err := st.AppendSubtree("fig2", true, []string{"a"}, "<u/><u/>"); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddSubtree([]string{"a"}, "<u/><u/>"); err != nil {
		t.Fatal(err)
	}
	want := estimates(t, syn, probeQueries...)
	wantU, _ := syn.Estimate("/a/u")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d synopses, want 1", len(loaded))
	}
	l := loaded[0]
	if l.Name != "fig2" || l.Source != "test" || !l.Created.Equal(created) {
		t.Errorf("meta = %+v", l)
	}
	if l.Replay != 3 || l.Torn {
		t.Errorf("replay = %d (torn %v), want 3 clean records", l.Replay, l.Torn)
	}
	if l.Ver != 3+3 {
		t.Errorf("ver = %d, want base 3 + 3 deltas", l.Ver)
	}
	got := estimates(t, l.Syn, probeQueries...)
	for i, q := range probeQueries {
		if got[i] != want[i] {
			t.Errorf("%s: recovered %g, want %g", q, got[i], want[i])
		}
	}
	if gotU, _ := l.Syn.Estimate("/a/u"); gotU != wantU {
		t.Errorf("/a/u after subtree replay = %g, want %g", gotU, wantU)
	}
}

// TestFeedbackPersistsODelta is the acceptance criterion: persisting one
// feedback event writes O(delta) bytes — a fixed-size log record — not a
// full snapshot.
func TestFeedbackPersistsODelta(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats().Synopses[0]
	baseBytes := stats.BaseBytes
	if baseBytes < 400 {
		t.Fatalf("implausibly small base: %d bytes", baseBytes)
	}
	before := stats.DeltaBytes
	feedback(t, st, "fig2", syn, "/a/c/s/s/t", 2)
	after := st.Stats().Synopses[0].DeltaBytes
	wrote := after - before
	if wrote <= 0 {
		t.Fatal("feedback wrote nothing")
	}
	if wrote > 200 {
		t.Errorf("one feedback wrote %d bytes — not O(delta)", wrote)
	}
	if wrote*4 > baseBytes {
		t.Errorf("one feedback wrote %d bytes vs %d-byte base — snapshot-sized, not delta-sized", wrote, baseBytes)
	}
	// The base file itself must not have been rewritten.
	if got := st.Stats().Synopses[0].BaseBytes; got != baseBytes {
		t.Errorf("base rewritten by feedback: %d -> %d bytes", baseBytes, got)
	}
}

// TestTornTailTolerated simulates the kill -9 signature: the log ends
// mid-record. Recovery must trust the intact prefix and ignore the tail.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}
	feedback(t, st, "fig2", syn, "/a/c/s/s/t", 2)
	want := estimates(t, syn, probeQueries...)
	st.Close()

	// Tear the tail: append half a record's worth of garbage.
	logPath := findOne(t, dir, "delta-*.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := openStore(t, dir)
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	l := loaded[0]
	if l.Replay != 1 {
		t.Fatalf("replay=%d, want 1 trusted record", l.Replay)
	}
	got := estimates(t, l.Syn, probeQueries...)
	for i, q := range probeQueries {
		if got[i] != want[i] {
			t.Errorf("%s: recovered %g, want %g", q, got[i], want[i])
		}
	}
	// Open must have truncated the garbage so new appends are reachable —
	// a record appended after an un-truncated torn tail would be silently
	// dropped by the restart after next.
	if fi, err := os.Stat(logPath); err != nil {
		t.Fatal(err)
	} else if trusted := tornTrustedSize(t, logPath); fi.Size() != trusted {
		t.Errorf("log not truncated to trusted prefix: size %d, trusted %d", fi.Size(), trusted)
	}
	feedback(t, st2, "fig2", l.Syn, "/a/c/s", 5)
	want2 := estimates(t, l.Syn, probeQueries...)
	st2.Close()

	st3 := openStore(t, dir)
	defer st3.Close()
	loaded, err = st3.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if loaded[0].Replay != 2 {
		t.Fatalf("second restart replay=%d, want 2 (post-torn-tail append lost)", loaded[0].Replay)
	}
	got = estimates(t, loaded[0].Syn, probeQueries...)
	for i, q := range probeQueries {
		if got[i] != want2[i] {
			t.Errorf("%s: second restart %g, want %g", q, got[i], want2[i])
		}
	}
}

// tornTrustedSize returns the byte size of the log's valid prefix.
func tornTrustedSize(t testing.TB, path string) int64 {
	t.Helper()
	res, err := scanLogFile(path, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Good
}

// TestChecksumStopsReplay flips a payload byte; the CRC must catch it and
// replay must stop at the corrupt record rather than apply garbage.
func TestChecksumStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}
	feedback(t, st, "fig2", syn, "/a/c/s/s/t", 2)
	feedback(t, st, "fig2", syn, "/a/c/s[t]/p", 7)
	st.Close()

	logPath := findOne(t, dir, "delta-*.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	l := loaded[0]
	if l.Replay >= 2 {
		t.Errorf("replayed %d records past corruption", l.Replay)
	}
	// The corrupt suffix was cut at open: the surviving log must be exactly
	// the records that replayed.
	if got := st2.Stats().Synopses[0].DeltaRecords; got != int64(l.Replay) {
		t.Errorf("surviving records = %d, replayed %d", got, l.Replay)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 5); err != nil {
		t.Fatal(err)
	}
	feedback(t, st, "fig2", syn, "/a/c/s/s/t", 2)
	feedback(t, st, "fig2", syn, "/a/c/s[t]/p", 7)
	if err := st.AppendBudget("fig2", 100000); err != nil {
		t.Fatal(err)
	}
	syn.SetBudget(100000)
	want := estimates(t, syn, probeQueries...)

	if folded, err := st.CompactNow("fig2"); err != nil || !folded {
		t.Fatalf("compact: folded=%v err=%v", folded, err)
	}
	stats := st.Stats().Synopses[0]
	if stats.Seq != 2 || stats.DeltaBytes != 0 || stats.DeltaRecords != 0 || stats.Compactions != 1 {
		t.Errorf("post-compact stats = %+v", stats)
	}
	// Old generation files are gone; only seq-2 files remain.
	sdir := filepath.Dir(findOne(t, dir, "base-*.xsyn"))
	ents, _ := os.ReadDir(sdir)
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "base-2.xsyn" || names[1] != "delta-2.log" {
		t.Errorf("post-compact files = %v", names)
	}

	// Deltas appended after compaction land in the new log and replay.
	feedback(t, st, "fig2", syn, "/a/c/s", 5)
	want2 := estimates(t, syn, probeQueries...)
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	l := loaded[0]
	if l.Replay != 1 {
		t.Errorf("replay after compaction = %d, want 1", l.Replay)
	}
	if l.Budget != 100000 {
		t.Errorf("budget folded into base = %d, want 100000", l.Budget)
	}
	// Ver must account for the folded deltas: base 5 + 3 folded + 1 new.
	if l.Ver != 9 {
		t.Errorf("ver = %d, want 9", l.Ver)
	}
	got := estimates(t, l.Syn, probeQueries...)
	for i, q := range probeQueries {
		if got[i] != want2[i] {
			t.Errorf("%s: recovered %g, want %g (pre-extra-feedback %g)", q, got[i], want2[i], want[i])
		}
	}
}

// TestCompactorRatioTrigger drives maybeCompact directly (the goroutine is
// just a ticker around it).
func TestCompactorRatioTrigger(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CompactRatio: 0.5, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}
	baseBytes := st.Stats().Synopses[0].BaseBytes
	for i := 0; float64(st.Stats().Synopses[0].DeltaBytes) <= 0.5*float64(baseBytes); i++ {
		feedback(t, st, "fig2", syn, "/a/c/s/s/t", float64(2+i))
	}
	st.maybeCompact()
	stats := st.Stats().Synopses[0]
	if stats.Compactions != 1 || stats.DeltaBytes != 0 {
		t.Errorf("ratio compaction did not run: %+v", stats)
	}
	// A single record is far under half the base size: nothing happens.
	feedback(t, st, "fig2", syn, "/a/c/s/s/t", 2)
	st.maybeCompact()
	if got := st.Stats().Synopses[0].Compactions; got != 1 {
		t.Errorf("compacted below ratio: %d compactions", got)
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("fig2"); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(filepath.Join(dir, "synopses")); len(ents) != 0 {
		t.Errorf("synopsis dir not removed: %v", ents)
	}
	if loaded, err := st.LoadAll(); err != nil || len(loaded) != 0 {
		t.Errorf("LoadAll after remove: %v, %v", loaded, err)
	}
	if err := st.AppendFeedback("fig2", xseed.HETDelta{}); err == nil {
		t.Error("append to removed synopsis succeeded")
	}
}

// TestStaleGenerationCleanup simulates a crash mid-compaction: files from a
// never-committed generation must be removed at open, and recovery must use
// the manifest's generation.
func TestStaleGenerationCleanup(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}
	feedback(t, st, "fig2", syn, "/a/c/s/s/t", 2)
	want := estimates(t, syn, probeQueries...)
	st.Close()

	sdir := filepath.Dir(findOne(t, dir, "base-*.xsyn"))
	// Debris: an abandoned next-generation base and a temp file.
	if err := os.WriteFile(filepath.Join(sdir, "base-2.xsyn"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, "base-2.xsyn.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	got := estimates(t, loaded[0].Syn, probeQueries...)
	for i := range probeQueries {
		if got[i] != want[i] {
			t.Errorf("%s: recovered %g, want %g", probeQueries[i], got[i], want[i])
		}
	}
	for _, stale := range []string{"base-2.xsyn", "base-2.xsyn.tmp"} {
		if _, err := os.Stat(filepath.Join(sdir, stale)); !os.IsNotExist(err) {
			t.Errorf("stale %s not cleaned", stale)
		}
	}
}

func TestFsck(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}
	feedback(t, st, "fig2", syn, "/a/c/s/s/t", 2)
	st.Close()

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || len(rep.Synopses) != 1 || !rep.Synopses[0].BaseOK || !rep.Synopses[0].ReplayOK {
		t.Fatalf("clean store fails fsck: %+v", rep)
	}
	if rep.Synopses[0].DeltaRecords != 1 {
		t.Errorf("fsck counted %d records, want 1", rep.Synopses[0].DeltaRecords)
	}
	var buf bytes.Buffer
	rep.WriteReport(&buf)
	if !strings.Contains(buf.String(), "OK") || !strings.Contains(buf.String(), "fig2") {
		t.Errorf("report = %q", buf.String())
	}

	// A torn tail is reported but tolerated.
	logPath := findOne(t, dir, "delta-*.log")
	f, _ := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{1, 2, 3})
	f.Close()
	rep, err = Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || !rep.Synopses[0].TornTail {
		t.Errorf("torn tail: ok=%v torn=%v", rep.OK, rep.Synopses[0].TornTail)
	}

	// A truncated base is a hard failure.
	basePath := findOne(t, dir, "base-*.xsyn")
	data, _ := os.ReadFile(basePath)
	if err := os.WriteFile(basePath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Synopses[0].BaseOK {
		t.Errorf("truncated base passes fsck: %+v", rep.Synopses[0])
	}

	// A missing manifest is a hard error.
	if _, err := Fsck(t.TempDir()); err == nil {
		t.Error("fsck of empty dir succeeded")
	}
}

func TestDirForSanitization(t *testing.T) {
	a, b := dirFor("weird/../name"), dirFor("weird_.._name")
	if strings.ContainsAny(a, "/\\") {
		t.Errorf("unsafe dir %q", a)
	}
	if a == b {
		t.Errorf("collision: %q == %q", a, b)
	}
	if dirFor("x") != dirFor("x") {
		t.Error("dirFor not deterministic")
	}
}

// findOne globs for exactly one file under dir, recursively.
func findOne(t testing.TB, dir, pattern string) string {
	t.Helper()
	var hits []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if ok, _ := filepath.Match(pattern, filepath.Base(path)); ok {
				hits = append(hits, path)
			}
		}
		return nil
	})
	if len(hits) != 1 {
		t.Fatalf("glob %s under %s: %v", pattern, dir, hits)
	}
	return hits[0]
}
