package main

// This is the only file of the benchmark that imports the repository's
// internal packages: the end-to-end measurement drives xseedd through the
// public client, api and xseed packages alone, so internal refactors can
// break at most the per-layer replay.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/server"
	"xseed/internal/store"
	"xseed/internal/wire"
)

// replayPlan sizes a replay from what the live run did.
type replayPlan struct {
	estCalls int // estimate requests, round-robin over the callers' streams
	fbEvery  int // one feedback batch after every fbEvery estimates (0: none)
	fbAfter  int // feedback batches after the estimate stream
}

// replayer re-drives a run's seeded request stream in-process, through the
// layers' public functions in the order the daemon calls them, with a span
// around each call. Its registry is built like the daemon's: the default
// 4096-entry cache, the same synopsis, and a group-committed store.
//
// The registry's estimate and feedback paths are single calls, so the
// layers inside them are timed by re-executing their work after the fact:
// parse, compile and plan run for each query the registry reported as a
// miss, and apply, append, publish, commit wait and EPT build on a twin
// synopsis with its own store. Those spans are tagged replay.
type replayer struct {
	ctx  context.Context
	w    workload
	in   *inputs
	tr   *tracer
	reg  *server.Registry
	syn  *xseed.Synopsis
	st   *store.Store
	twin *xseed.Synopsis
	twSt *store.Store

	estReqs, misses, wrong int
	req, resp              []byte
}

func newReplayer(ctx context.Context, w workload, in *inputs, dir string, tr *tracer) (*replayer, error) {
	r := &replayer{ctx: ctx, w: w, in: in, tr: tr, reg: server.NewRegistry(4096, 0)}
	var err error
	if r.syn, err = xseed.BuildSynopsis(in.doc, in.cfg); err != nil {
		return nil, err
	}
	if r.twin, err = xseed.BuildSynopsis(in.doc, in.cfg); err != nil {
		return nil, err
	}
	opts := store.Options{Fsync: store.FsyncBatch}
	if r.st, err = store.Open(filepath.Join(dir, "store"), opts); err != nil {
		return nil, err
	}
	r.reg.AttachStore(r.st, nil)
	if _, err = r.reg.Add(synName, r.syn, "replay"); err != nil {
		r.close()
		return nil, err
	}
	if r.twSt, err = store.Open(filepath.Join(dir, "twin"), opts); err != nil {
		r.close()
		return nil, err
	}
	if err = r.twSt.SaveBase(synName, r.twin, "replay", time.Now(), 0, 1); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replayer) close() {
	r.reg.Close()
	r.st.Close()
	if r.twSt != nil {
		r.twSt.Close()
	}
}

// run replays the plan with the same pickers the live run used.
func (r *replayer) run(seed int64, p replayPlan) error {
	ps := streams(r.w, seed, len(r.in.pool))
	fp := fbPicker(seed, r.in)
	idx := make([]int, r.w.batch)
	qs := make([]string, r.w.batch)
	picks := make([]int, fbBatch)
	feedback := func() error {
		fp.fill(picks)
		return r.feedback(picks)
	}
	for i := 0; i < p.estCalls; i++ {
		ps[i%len(ps)].fill(idx)
		for j, k := range idx {
			qs[j] = r.in.pool[k]
		}
		if err := r.estimate(qs); err != nil {
			return err
		}
		if p.fbEvery > 0 && (i+1)%p.fbEvery == 0 {
			if err := feedback(); err != nil {
				return err
			}
		}
	}
	for i := 0; i < p.fbAfter; i++ {
		if err := feedback(); err != nil {
			return err
		}
	}
	return nil
}

// estimate replays one estimate request: client encode, server decode,
// registry, server encode, client decode — JSON on hot-http, xtp frames
// elsewhere — then re-executes the registry's misses.
func (r *replayer) estimate(qs []string) error {
	tr := r.tr
	tr.request("request")
	defer tr.end()
	r.estReqs++

	var queries []string
	var items []api.EstimateItem
	var err error
	if r.w.http {
		tr.begin("codec.encode_req", false)
		r.req, err = json.Marshal(api.EstimateRequest{Queries: qs})
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("codec.decode_req", false)
		var req api.EstimateRequest
		dec := json.NewDecoder(bytes.NewReader(r.req))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
		tr.end()
		if err != nil {
			return err
		}
		queries = req.Queries
	} else {
		tr.begin("codec.encode_req", false)
		r.req = wire.AppendEstimateReq(r.req[:0], synName, qs, false)
		tr.end()
		tr.begin("codec.decode_req", false)
		_, queries, _, err = wire.DecodeEstimateReq(r.req)
		tr.end()
		if err != nil {
			return err
		}
	}

	tr.begin("registry.estimate_batch", false)
	items, err = r.reg.EstimateBatch(r.ctx, synName, queries, false)
	tr.end()
	if err != nil {
		return err
	}

	if r.w.http {
		tr.begin("codec.encode_resp", false)
		var b bytes.Buffer
		err = json.NewEncoder(&b).Encode(api.EstimateResponse{Results: items})
		r.resp = b.Bytes()
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("codec.decode_resp", false)
		var resp api.EstimateResponse
		err = json.Unmarshal(r.resp, &resp)
		tr.end()
		if err != nil {
			return err
		}
	} else {
		tr.begin("codec.encode_resp", false)
		r.resp = wire.AppendEstimateResp(r.resp[:0], items)
		tr.end()
		tr.begin("codec.decode_resp", false)
		_, err = wire.DecodeEstimateResp(r.resp)
		tr.end()
		if err != nil {
			return err
		}
	}

	// Duplicates within a batch share one miss in the registry, so each
	// distinct uncached query is re-executed once.
	sn := r.syn.Snapshot()
	var seen map[string]bool
	for i, it := range items {
		if it.Error != nil {
			return fmt.Errorf("replay estimate %q: %w", qs[i], it.Error)
		}
		if it.Cached || seen[qs[i]] {
			continue
		}
		if seen == nil {
			seen = map[string]bool{}
			tr.begin("replay.misses", true)
			defer tr.end()
		}
		seen[qs[i]] = true
		r.misses++
		tr.begin("xpath.parse", false)
		q, err := xseed.ParseQuery(qs[i])
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("estimate.compile", false)
		pl := sn.Compile(q)
		tr.end()
		tr.begin("estimate.plan_run", false)
		v := pl.Run(sn)
		tr.end()
		if v != it.Estimate {
			r.wrong++
		}
	}
	return nil
}

// feedback replays one feedback batch through the registry, then re-executes
// its write path on the twin: apply and append per event, one publish, the
// group-commit wait, and the EPT build the next estimate would pay.
func (r *replayer) feedback(picks []int) error {
	tr := r.tr
	tr.request("request")
	defer tr.end()
	obs := r.in.fbItems(picks)
	items := make([]api.FeedbackItem, len(obs))
	for i, o := range obs {
		items[i] = api.FeedbackItem{Query: o.Query, Actual: o.Actual}
	}
	tr.begin("registry.feedback_batch", false)
	errs, err := r.reg.FeedbackBatch(synName, items)
	tr.end()
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}

	tr.begin("replay.write", true)
	defer tr.end()
	var pend []*store.Pending
	for i, k := range picks {
		tr.begin("het.apply", false)
		_, d, ok := r.twin.FeedbackQueryDeltaDeferred(r.in.parsed[r.in.fbIdx[k]], obs[i].Actual)
		tr.end()
		if !ok {
			continue
		}
		tr.begin("store.append", false)
		p, err := r.twSt.AppendFeedbackEnq(synName, d)
		tr.end()
		if err != nil {
			return err
		}
		pend = append(pend, p)
	}
	tr.begin("synopsis.publish", false)
	r.twin.Publish()
	tr.end()
	tr.begin("store.commit_wait", false)
	for _, p := range pend {
		if err := p.Wait(); err != nil {
			tr.end()
			return err
		}
	}
	tr.end()
	tr.begin("estimate.ept_build", false)
	r.twin.Snapshot().EPTStats()
	tr.end()
	return nil
}

// layerMetrics are the replay's per-layer numbers: the median of each call,
// in the unit its name ends with.
func (r *replayer) layerMetrics() map[string]metric {
	t := r.tr
	m := map[string]metric{
		"registry.misses_per_req": {ratio(float64(r.misses), float64(r.estReqs)), "ratio"},
	}
	for _, name := range []string{"codec.encode_req", "codec.decode_req", "codec.encode_resp", "codec.decode_resp",
		"xpath.parse", "estimate.compile", "estimate.plan_run", "het.apply", "store.append"} {
		m[name+"_ns"] = metric{t.p50(name, time.Nanosecond), "ns"}
	}
	for _, name := range []string{"registry.estimate_batch", "registry.feedback_batch", "estimate.ept_build",
		"synopsis.publish", "store.commit_wait"} {
		m[name+"_us"] = metric{t.p50(name, time.Microsecond), "us"}
	}
	return m
}

// layerTimePerRequest is the mean time per estimate request spent in the
// layers on the request path (codecs and registry), excluding the replay's
// re-executions, which the registry time already contains.
func (r *replayer) layerTimePerRequest() time.Duration {
	var d time.Duration
	for _, name := range []string{"codec.encode_req", "codec.decode_req", "registry.estimate_batch",
		"codec.encode_resp", "codec.decode_resp"} {
		d += r.tr.total(name)
	}
	return d / time.Duration(max(r.estReqs, 1))
}
