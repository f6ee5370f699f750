//go:build linux

package store

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"xseed"
)

// underFileSizeLimit runs f with the process's file size limit set to
// limit bytes and restores the old limit after. Go ignores SIGXFSZ, so a
// write that crosses the limit lands the bytes below it and then fails
// with EFBIG: a short write, as a full disk would make it.
func underFileSizeLimit(t *testing.T, limit int64, f func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = uint64(limit)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}

// TestShortWriteKeepsLaterAcks: a log write that fails after landing part
// of its bytes must not cost the records acked after it. In every fsync
// mode, one append fails under a file size limit, the appends after it
// ack, and after reopen every acked record replays. A standby whose
// segment append fails the same way takes the retransmit and ends with a
// log byte-identical to the primary's.
func TestShortWriteKeepsLaterAcks(t *testing.T) {
	queries := []string{"/a/c/s", "/a/c/p", "/a/t", "/a/c/s/s", "/a/c/t", "/a/u", "/a/c/s/p"}
	for _, mode := range []FsyncMode{FsyncOff, FsyncBatch, FsyncEvery} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := Options{Fsync: mode, BatchLatency: time.Millisecond}
			pdir, sdir := t.TempDir(), t.TempDir()
			p, err := Open(pdir, opts)
			if err != nil {
				t.Fatal(err)
			}
			syn := buildFig2(t)
			if err := p.SaveBase("fig2", syn, "test", time.Now(), 0, 0); err != nil {
				t.Fatal(err)
			}
			// ref absorbs only the acked deltas: what recovery must rebuild.
			ref := buildFig2(t)
			appendOne := func(i int) error {
				q, err := xseed.ParseQuery(queries[i])
				if err != nil {
					t.Fatal(err)
				}
				_, delta, applied := syn.FeedbackQueryDeltaDeferred(q, float64(2+i))
				syn.Publish()
				if !applied {
					t.Fatalf("feedback %s not applied", queries[i])
				}
				if err := p.AppendFeedback("fig2", delta); err != nil {
					return err
				}
				ref.ApplyHETDelta(delta)
				return nil
			}
			tailSize := func(st *Store) int64 {
				_, size, ok := st.Tail("fig2")
				if !ok {
					t.Fatal("fig2 not persisted")
				}
				return size
			}

			for i := 0; i < 3; i++ {
				if err := appendOne(i); err != nil {
					t.Fatal(err)
				}
			}
			split := tailSize(p)
			underFileSizeLimit(t, split+10, func() {
				if err := appendOne(3); err == nil {
					t.Fatal("an append past the file size limit was acked")
				}
			})
			for i := 4; i < len(queries); i++ {
				if err := appendOne(i); err != nil {
					t.Fatalf("append after the failed one: %v", err)
				}
			}

			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			want := estimates(t, ref, queries...)
			recovered := func(st *Store) {
				t.Helper()
				loaded, err := st.LoadAll()
				if err != nil {
					t.Fatal(err)
				}
				if len(loaded) != 1 || loaded[0].Replay != len(queries)-1 {
					t.Fatalf("recovered %+v, want all %d acked records", loaded, len(queries)-1)
				}
				got := estimates(t, loaded[0].Syn, queries...)
				for i, q := range queries {
					if got[i] != want[i] {
						t.Errorf("%s recovered %g, want %g", q, got[i], want[i])
					}
				}
			}
			p = openStore(t, pdir)
			defer p.Close()
			recovered(p)

			seq, size, _ := p.Tail("fig2")
			exp, err := p.ExportBase("fig2")
			if err != nil {
				t.Fatal(err)
			}
			head, err := p.ReadSegment("fig2", seq, 0, split)
			if err != nil {
				t.Fatal(err)
			}
			rest, err := p.ReadSegment("fig2", seq, split, size-split)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(sdir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ImportBase("fig2", exp.Seq, exp.Meta, exp.Data); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.AppendSegment("fig2", seq, 0, head); err != nil {
				t.Fatal(err)
			}
			underFileSizeLimit(t, split+10, func() {
				if _, _, err := s.AppendSegment("fig2", seq, split, rest); err == nil {
					t.Fatal("a segment past the file size limit was acked")
				}
			})
			if n, _, err := s.AppendSegment("fig2", seq, split, rest); err != nil || n != size {
				t.Fatalf("retransmit = (%d, %v), want the primary's %d bytes", n, err, size)
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
			if pb, sb := logBytes(pdir), logBytes(sdir); !bytes.Equal(pb, sb) {
				t.Errorf("standby log diverges from the primary's: %d vs %d bytes", len(sb), len(pb))
			}
			s = openStore(t, sdir)
			defer s.Close()
			recovered(s)
		})
	}
}

// TestShortWriteMidRoundPersistsNothing: in the modes that write a round
// inline, a write that fails partway through the round cuts the log back to
// where the round began, the records that landed whole included, so the
// caller's retry of the round cannot log any of them twice.
func TestShortWriteMidRoundPersistsNothing(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncOff, FsyncEvery} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveBase("fig2", buildFig2(t), "test", time.Now(), 0, 0); err != nil {
				t.Fatal(err)
			}
			round := []xseed.HETDelta{{Hash: 1, Card: 5}, {Hash: 2, Card: 7}}
			first, err := encodeRecord(deltaRecord{Op: opFeedback, HET: &round[0]})
			if err != nil {
				t.Fatal(err)
			}
			// The first record fits under the limit; the second lands 10 bytes.
			underFileSizeLimit(t, int64(len(first))+10, func() {
				if _, err := st.AppendFeedbackEnq("fig2", round...); err == nil {
					t.Fatal("a round past the file size limit was acked")
				}
			})
			if _, size, _ := st.Tail("fig2"); size != 0 {
				t.Fatalf("log size %d after the failed round, want 0", size)
			}
			if _, err := st.AppendFeedbackEnq("fig2", round...); err != nil {
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
			if len(loaded) != 1 || loaded[0].Replay != len(round) {
				t.Fatalf("recovered %+v, want the %d records of one round", loaded, len(round))
			}
		})
	}
}
