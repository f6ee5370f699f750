package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xseed"
	"xseed/internal/obs"
)

// openBatchStore opens a store in group-commit mode with a short flush
// window so tests coalesce without sleeping the full production default.
func openBatchStore(t testing.TB, dir string, om *obs.Registry) *Store {
	t.Helper()
	st, err := Open(dir, Options{Fsync: FsyncBatch, BatchLatency: time.Millisecond, Metrics: om})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// batchFeedback applies one feedback and enqueues its delta the way the
// registry does — apply and enqueue inside the caller's critical section
// (log order = apply order), wait for durability outside it.
func batchFeedback(t testing.TB, st *Store, synMu *sync.Mutex, syn *xseed.Synopsis, query string, actual float64) {
	t.Helper()
	q, err := xseed.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	synMu.Lock()
	_, delta, applied := syn.FeedbackQueryDeltaDeferred(q, actual)
	syn.Publish()
	if !applied {
		synMu.Unlock()
		t.Fatalf("feedback %s not applied", query)
	}
	p, err := st.AppendFeedbackEnq("fig2", delta)
	synMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// enqFeedback applies one feedback to syn and enqueues its delta for
// "fig2", returning the record's durability handle.
func enqFeedback(t testing.TB, st *Store, syn *xseed.Synopsis, query string, actual float64) *Pending {
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
	p, err := st.AppendFeedbackEnq("fig2", delta)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGroupCommitAckedSurviveCrash is the durability contract of
// -store-fsync=batch: every feedback whose append call RETURNED (was
// acked) before a kill -9 must replay after restart. Concurrent workers
// hammer acked appends, then the store is abandoned without Close —
// nothing buffered in the committer may be needed, because every ack
// happened strictly after its batch's fsync. A fresh store on the same
// directory must recover the identical synopsis.
func TestGroupCommitAckedSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	om := obs.NewRegistry()
	st := openBatchStore(t, dir, om)
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}

	queries := []string{"/a/c/s/s/t", "/a/c/s", "/a/c/p", "/a/t", "/a/c/s/p", "/a/c/s/s", "/a/c/t", "/a/u"}
	var synMu sync.Mutex
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := queries[(w+i)%len(queries)]
				batchFeedback(t, st, &synMu, syn, q, float64(1+(w*rounds+i)%13))
			}
		}(w)
	}
	wg.Wait()
	want := estimates(t, syn, queries...)

	// Group commit must have coalesced: far fewer fsyncs than records.
	// (workers goroutines share flush windows; even modest batching more
	// than halves the fsync count.)
	fsyncs := storeCounterValue(t, om, "xseed_store_fsyncs_total")
	if total := uint64(workers * rounds); fsyncs >= total/2 {
		t.Errorf("fsyncs = %d for %d acked records; group commit did not coalesce", fsyncs, total)
	}

	// kill -9: abandon st without Close. The committer goroutine and open
	// file die with the process in production; here they just leak idle.
	st2 := openStore(t, dir)
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Torn {
		t.Fatalf("recovery after abandon: %+v", loaded)
	}
	if loaded[0].Replay != workers*rounds {
		t.Errorf("replayed %d records, want all %d acked", loaded[0].Replay, workers*rounds)
	}
	got := estimates(t, loaded[0].Syn, queries...)
	for i, q := range queries {
		if got[i] != want[i] {
			t.Errorf("%s: recovered %g, want %g", q, got[i], want[i])
		}
	}
}

// storeCounterValue reads one counter family's value off the registry's
// text exposition — the same surface operators scrape.
func storeCounterValue(t testing.TB, om *obs.Registry, name string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := om.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v uint64
			for _, c := range rest {
				if c < '0' || c > '9' {
					break
				}
				v = v*10 + uint64(c-'0')
			}
			return v
		}
	}
	t.Fatalf("counter %s not in exposition", name)
	return 0
}

// TestGroupCommitFlushErrorFansOut: when the batched write or fsync
// fails, EVERY waiter in that batch must see the error — an acked-but-
// not-durable record is the one lie the store must never tell, and a
// waiter that hangs or reports nil on a failed flush would tell it.
func TestGroupCommitFlushErrorFansOut(t *testing.T) {
	dir := t.TempDir()
	// A very long window: an idle store flushes its first append at once,
	// and the spacing then holds the next records until we force the flush.
	st, err := Open(dir, Options{Fsync: FsyncBatch, BatchLatency: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}

	if err := enqFeedback(t, st, syn, "/a/c/t", 3).Wait(); err != nil {
		t.Fatal(err)
	}
	p1 := enqFeedback(t, st, syn, "/a/c/s", 5)
	p2 := enqFeedback(t, st, syn, "/a/c/p", 7)

	// Sabotage the log fd underneath the pending batch, then force the
	// flush directly (the committer would do the same at window end).
	s, err := st.syn("fig2")
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.log.Close()
	st.flushPendingLocked(s)
	s.mu.Unlock()

	err1, err2 := p1.Wait(), p2.Wait()
	if err1 == nil || err2 == nil {
		t.Fatalf("failed flush acked waiters: %v, %v", err1, err2)
	}
	if err1 != err2 {
		t.Errorf("waiters saw different errors: %v vs %v", err1, err2)
	}
	if !strings.Contains(err1.Error(), "batch") || !strings.Contains(err1.Error(), "fig2") {
		t.Errorf("flush error names neither the batch nor the synopsis: %v", err1)
	}
}

// TestGroupCommitStandbyLogByteIdentical: a standby fed through the
// replication path from a primary committing in batches ends with a
// delta log byte-identical to the primary's. Group commit changes WHEN
// bytes reach the file, never WHICH bytes — the record framing is
// self-delimiting, so concatenated batch writes are indistinguishable
// from record-at-a-time writes.
func TestGroupCommitStandbyLogByteIdentical(t *testing.T) {
	pdir, sdir := t.TempDir(), t.TempDir()
	p := openBatchStore(t, pdir, nil)
	syn := buildFig2(t)
	if err := p.SaveBase("fig2", syn, "test", time.Now(), 0, 1); err != nil {
		t.Fatal(err)
	}

	queries := []string{"/a/c/s/s/t", "/a/c/s", "/a/c/p", "/a/t"}
	var synMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				batchFeedback(t, p, &synMu, syn, queries[(w+i)%len(queries)], float64(1+i%9))
			}
		}(w)
	}
	wg.Wait()

	exp, err := p.ExportBase("fig2")
	if err != nil {
		t.Fatal(err)
	}
	seq, size, ok := p.Tail("fig2")
	if !ok || size == 0 {
		t.Fatalf("tail = (%d, %d, %v)", seq, size, ok)
	}
	seg, err := p.ReadSegment("fig2", seq, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t, sdir)
	if _, err := s.ImportBase("fig2", exp.Seq, exp.Meta, exp.Data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AppendSegment("fig2", seq, 0, seg); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	logBytes := func(dir string) []byte {
		matches, err := filepath.Glob(filepath.Join(dir, "synopses", "*", "*", deltaFile(seq)))
		if err != nil || len(matches) != 1 {
			t.Fatalf("delta log glob in %s = %v, %v", dir, matches, err)
		}
		b, err := os.ReadFile(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pb, sb := logBytes(pdir), logBytes(sdir)
	if !bytes.Equal(pb, sb) {
		t.Fatalf("standby log diverges from batched primary: %d vs %d bytes", len(sb), len(pb))
	}
}

// TestGroupCommitIdleFlush: an append to an idle store is flushed at once,
// not after a batch window, while one made right after that flush waits
// out the spacing, and Close flushes it. The window here is an hour, so
// only the idle rule can ack the first append in time.
func TestGroupCommitIdleFlush(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncBatch, BatchLatency: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	syn := buildFig2(t)
	if err := st.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
		t.Fatal(err)
	}

	first := enqFeedback(t, st, syn, "/a/c/s", 5)
	select {
	case <-first.done:
		if err := first.Wait(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an idle store's first append is still pending after 10s")
	}

	second := enqFeedback(t, st, syn, "/a/c/p", 7)
	select {
	case <-second.done:
		t.Fatal("an append right after a flush did not wait for the spacing")
	case <-time.After(50 * time.Millisecond):
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := second.Wait(); err != nil {
		t.Fatalf("Close settled the pending append with %v", err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Replay != 2 {
		t.Fatalf("recovered %+v, want both records", loaded)
	}
}

// TestAppendFeedbackRoundAllOrNothing: a round whose deltas cannot all be
// encoded persists none of them, in every fsync mode, so a caller can send
// the round again delta by delta without logging any twice; a round that
// encodes lands whole.
func TestAppendFeedbackRoundAllOrNothing(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncOff, FsyncBatch, FsyncEvery} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{Fsync: mode, BatchLatency: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveBase("fig2", buildFig2(t), "test", time.Now(), 0, 0); err != nil {
				t.Fatal(err)
			}
			good := xseed.HETDelta{Hash: 1, Card: 5}
			if _, err := st.AppendFeedbackEnq("fig2", good, xseed.HETDelta{Hash: 2, Card: math.NaN()}, good); err == nil {
				t.Fatal("a round with an unencodable delta was accepted")
			}
			if _, size, _ := st.Tail("fig2"); size != 0 {
				t.Fatalf("the failed round left %d bytes in the log", size)
			}
			p, err := st.AppendFeedbackEnq("fig2", good, xseed.HETDelta{Hash: 2, Card: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := openStore(t, dir)
			defer st2.Close()
			loaded, err := st2.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded) != 1 || loaded[0].Replay != 2 {
				t.Fatalf("recovered %+v, want the 2 records of the good round", loaded)
			}
		})
	}
}
