package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/fixtures"
	"xseed/internal/logx"
	"xseed/internal/store"
	"xseed/internal/wire"
)

// newBatchStoreServer serves HTTP over a server whose store group-commits
// with a 1 ms window.
func newBatchStoreServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{CacheCapacity: 1024, Logger: logx.Discard(), StoreDir: t.TempDir(),
		StoreFsync: "batch", StoreBatchLatency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// TestFeedbackBatchRoundOneFlush: the events of one FeedbackBatch reach
// the log together, one fsync and one batch of all of them, although an
// idle store flushes the first record it is handed at once. Every round
// starts on an idle store, so a drain that handed its records over one at
// a time would race the committer, which wakes on the first: over 30
// rounds of predicate feedback, a few such races split a round.
func TestFeedbackBatchRoundOneFlush(t *testing.T) {
	s, ts := newBatchStoreServer(t)
	createFixture(t, ts, "fig2")
	queries := []string{"/a/c/s/s/t", "/a/c/s[t]/p", "//s[t]/p", "/a/c/s[p]/s"}
	const events = 16
	for round := 0; round < 30; round++ {
		time.Sleep(5 * time.Millisecond) // past the 1 ms spacing: idle
		before := scrapeMetrics(t, ts)
		items := make([]api.FeedbackItem, events)
		for i := range items {
			// Each event moves a card to a value it did not hold.
			items[i] = api.FeedbackItem{Query: queries[i%len(queries)], Actual: float64(100*round + i + 1)}
		}
		errs, err := s.Registry().FeedbackBatch("fig2", items)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("round %d item %d: %v", round, i, e)
			}
		}
		after := scrapeMetrics(t, ts)
		if d := after["xseed_store_fsyncs_total"] - before["xseed_store_fsyncs_total"]; d != 1 {
			t.Errorf("round %d: %g fsyncs, want 1", round, d)
		}
		if d := after["xseed_store_batch_events_sum"] - before["xseed_store_batch_events_sum"]; d != events {
			t.Errorf("round %d: %g records flushed, want the %d events in one batch", round, d, events)
		}
		if d := after["xseed_store_batch_events_count"] - before["xseed_store_batch_events_count"]; d != 1 {
			t.Errorf("round %d: %g batches, want 1", round, d)
		}
	}
}

// newFig2Registry registers the fig2 synopsis, built with cfg, in a
// registry whose store, in mode and with a 1 ms window, lives in dir.
func newFig2Registry(t *testing.T, dir string, mode store.FsyncMode, cfg *xseed.Config) (*Registry, *store.Store) {
	t.Helper()
	reg := NewRegistry(1024, 0)
	st, err := store.Open(dir, store.Options{Fsync: mode, BatchLatency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	reg.AttachStore(st, nil)
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	return reg, st
}

// estimateFig2 is the estimate reg's fig2 synopsis serves for query.
func estimateFig2(t *testing.T, reg *Registry, query string) float64 {
	t.Helper()
	e, err := reg.Get("fig2")
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Synopsis().Estimate(query)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestFeedbackRoundUnencodableDelta: when one delta of a drain round cannot
// be encoded, the round's one store call fails, and the deltas go again one
// by one: only that delta's op fails, the others ack, and the log holds
// exactly their records, in every fsync mode. A valid actual can still make
// such a delta through an estimate that overflows: without precomputed
// hyper-edges, /a/c/s estimates 2.5 times /a/c's card, so after feedback of
// 1e308 on /a/c it is +Inf, and so is the error a feedback on /a/c/s
// records, which JSON cannot hold.
func TestFeedbackRoundUnencodableDelta(t *testing.T) {
	for _, mode := range []store.FsyncMode{store.FsyncOff, store.FsyncBatch, store.FsyncEvery} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			reg, st := newFig2Registry(t, dir, mode, &xseed.Config{HET: &xseed.HETConfig{FeedbackOnly: true}})
			if err := reg.Feedback("fig2", "/a/c", 1e308); err != nil {
				t.Fatal(err)
			}
			if est := estimateFig2(t, reg, "/a/c/s"); !math.IsInf(est, 1) {
				t.Fatalf("/a/c/s estimates %g, want +Inf", est)
			}
			errs, err := reg.FeedbackBatch("fig2", []api.FeedbackItem{
				{Query: "/a/c/p", Actual: 7}, {Query: "/a/c/s", Actual: 5}, {Query: "/a/t", Actual: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			if errs[0] != nil || errs[2] != nil || errs[1] == nil || errs[1].Code != api.CodeInternal {
				t.Fatalf("item errors %v, want only the middle one, an internal error", errs)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := store.Open(dir, store.Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			loaded, err := st2.LoadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded) != 1 || loaded[0].Replay != 3 {
				t.Fatalf("recovered %+v, want the fig2 synopsis with 3 records", loaded)
			}
			for q, v := range map[string]float64{"/a/c": 1e308, "/a/c/p": 7, "/a/t": 3} {
				if got, err := loaded[0].Syn.Estimate(q); err != nil || got != v {
					t.Errorf("recovered %s estimates %v, %v; want %v", q, got, err, v)
				}
			}
		})
	}
}

// badActuals are feedback counts no synopsis can absorb.
var badActuals = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5}

// TestFeedbackRejectsBadActualXTP: xtp frames carry the actual count as a
// raw float64, so they can hold NaN and infinities as well as negative
// counts. Each is a typed bad_request, alone and as one item of a batch;
// the synopsis keeps its estimate, its log gets no record, and the valid
// items of the batch apply.
func TestFeedbackRejectsBadActualXTP(t *testing.T) {
	reg, _ := newFig2Registry(t, t.TempDir(), store.FsyncBatch, nil)
	_, r, w := dialRaw(t, serveXTP(t, reg, nil))
	want := estimateFig2(t, reg, "/a/c/s")

	corr := uint64(0)
	for _, actual := range badActuals {
		corr++
		f := exchange(t, r, w, wire.FrameFeedbackReq, corr, wire.AppendFeedbackReq(nil, "fig2", "/a/c/s", actual))
		if ae, err := wire.DecodeFeedbackAck(f.Payload); f.Type != wire.FrameFeedbackAck || err != nil || ae == nil || ae.Code != api.CodeBadRequest {
			t.Fatalf("feedback of %v: %s %+v, %v; want a bad_request ack", actual, f.Type, ae, err)
		}
		corr++
		items := []api.FeedbackItem{{Query: "/a/c/p", Actual: 7}, {Query: "/a/c/s", Actual: actual}, {Query: "/a/t", Actual: 3}}
		f = exchange(t, r, w, wire.FrameFeedbackBatchReq, corr, wire.AppendFeedbackBatchReq(nil, "fig2", items))
		errs, err := wire.DecodeFeedbackBatchAck(f.Payload)
		if f.Type != wire.FrameFeedbackBatchAck || err != nil || len(errs) != len(items) {
			t.Fatalf("batch with %v: %s %v, %v", actual, f.Type, errs, err)
		}
		if errs[0] != nil || errs[2] != nil || errs[1] == nil || errs[1].Code != api.CodeBadRequest {
			t.Fatalf("batch with %v: item errors %v, want only the middle one, a bad_request", actual, errs)
		}
	}
	checkBadActualsAbsorbed(t, reg, "fig2", want, 2*len(badActuals))
}

// TestFeedbackRejectsNegativeActualHTTP: JSON has no NaN or infinity, but a
// negative count decodes; it is a typed bad_request alone and as one item
// of a batch, with the same outcome as over xtp.
func TestFeedbackRejectsNegativeActualHTTP(t *testing.T) {
	s, ts := newBatchStoreServer(t)
	createFixture(t, ts, "fig2")
	want := estimateHTTP(t, ts, "fig2", "/a/c/s")

	body, err := json.Marshal(api.FeedbackRequest{Query: "/a/c/s", Actual: -5})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/synopses/fig2/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ae := api.DecodeErrorBody(resp.StatusCode, data); resp.StatusCode != http.StatusBadRequest || ae.Code != api.CodeBadRequest {
		t.Fatalf("feedback of -5: status %d, %+v; want a bad_request", resp.StatusCode, ae)
	}
	status, out := postBatch(t, ts, "", "fig2", []api.FeedbackItem{
		{Query: "/a/c/p", Actual: 7}, {Query: "/a/c/s", Actual: -5}, {Query: "/a/t", Actual: 3},
	})
	if status != http.StatusOK || len(out.Results) != 3 {
		t.Fatalf("batch: status %d, %+v", status, out)
	}
	if r := out.Results; r[0].Error != nil || r[2].Error != nil || r[1].Error == nil || r[1].Error.Code != api.CodeBadRequest {
		t.Fatalf("batch item errors %+v, want only the middle one, a bad_request", r)
	}
	checkBadActualsAbsorbed(t, s.Registry(), "fig2", want, 2)
}

// checkBadActualsAbsorbed checks a synopsis after rejected feedback on
// /a/c/s among valid feedback on /a/c/p (7) and /a/t (3): /a/c/s still
// estimates want, the valid feedback applied, and the log holds a record
// for each valid item and nothing else.
func checkBadActualsAbsorbed(t *testing.T, reg *Registry, name string, want float64, records int) {
	t.Helper()
	e, err := reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	for q, v := range map[string]float64{"/a/c/s": want, "/a/c/p": 7, "/a/t": 3} {
		if got, err := e.Synopsis().Estimate(q); err != nil || got != v {
			t.Errorf("%s estimates %v, %v; want %v", q, got, err, v)
		}
	}
	if info := e.Info(); info.Feedbacks != int64(records) {
		t.Errorf("%d feedbacks recorded, want the %d valid ones", info.Feedbacks, records)
	}
	stats := reg.Store().Stats()
	if len(stats.Synopses) != 1 || stats.Synopses[0].DeltaRecords != int64(records) {
		t.Errorf("store holds %+v, want %d delta records", stats.Synopses, records)
	}
}
