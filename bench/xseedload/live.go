package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xseed"
	"xseed/api"
	"xseed/client"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the bounded metrics a user of xseedd sees; a run with
// tracing off reports exactly these. Every other metric a run computes is
// per-layer. The timings here are scaled to the reference host speed (see
// hostspeed.go); their unscaled values are the per-layer client.* and
// server.* metrics. Recovery time and the latency tails stay per-layer:
// their spread across runs is wider than any bound may be (see the README).
var e2eMetrics = []string{"setup_s", "est_per_s", "est_p50_us", "server_cpu_us_per_est", "server_rss_mb",
	"fb_ack_p50_ms", "qerror_p90", "qerror_p99"}

// segmentLen is the length of the equal parts the measured window is split
// into; throughput and latency are medians over them.
const segmentLen = 500 * time.Millisecond

// maxLateMs is the open-loop lateness p99 above which a run is invalid: the
// generator would be more than one send interval behind its schedule. (Go
// timers on an idle shared 2-vCPU VM already wake up to ~5 ms late at p99,
// so the 1 ms a bare-metal host allows is out of reach here.)
const maxLateMs = 4.0

// runConfig is one benchmark run of one workload.
type runConfig struct {
	w       workload
	seed    int64
	measure time.Duration
	trace   bool
	smoke   bool
	xseedd  string    // daemon binary
	dir     string    // scratch directory for stores and daemon logs
	outDir  string    // where trace files go
	report  io.Writer // human-readable progress and results
}

// phases are the lengths and counts around the measured window.
type phases struct {
	warmup      time.Duration
	fbAlone     time.Duration // feedback after the window, on workloads without mixed traffic
	launches    int           // timed set-ups; the median is reported
	restarts    int           // timed kill −9 recoveries; the median is reported
	replayCalls int           // cap on replayed estimate requests
	replayFB    int           // cap on replayed feedback batches after the stream
}

func phasesFor(smoke bool) phases {
	if smoke {
		return phases{warmup: 200 * time.Millisecond, fbAlone: 300 * time.Millisecond,
			launches: 1, restarts: 1, replayCalls: 200, replayFB: 5}
	}
	return phases{warmup: time.Second, fbAlone: 2500 * time.Millisecond,
		launches: 9, restarts: 5, replayCalls: 5000, replayFB: 100}
}

// runResult is what one run reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Valid     bool              `json:"valid"`   // open-loop lateness p99 within maxLateMs
	Samples   map[string]int    `json:"samples"` // sample counts behind the percentiles
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// live drives one daemon through a run.
type live struct {
	rc      runConfig
	ph      phases
	in      *inputs
	tenants string
	store   string // store directory of the measured daemon
	d       *daemon

	http *client.Client
	xtp  []*client.XTP
	ests []xseed.Estimator // one per caller
	fb   xseed.Estimator   // feedback connection

	pickers []*picker
	fbp     *picker
	fedMu   sync.Mutex
	fed     []bool // pool indices whose feedback was acked

	attempted, failed atomic.Int64
	problems          []string

	callRate float64       // estimate calls per second in the measured window
	meanCall time.Duration // mean estimate call latency in the measured window
	fbAcks   int
	valid    bool
	samples  map[string]int
	m        map[string]metric
}

// runOnce runs one workload: set-up, warm-up, the measured window, the
// durability checks, and — when tracing — the per-layer replay.
func runOnce(ctx context.Context, rc runConfig) (*runResult, error) {
	in, err := newInputs(rc.w, rc.seed, rc.smoke)
	if err != nil {
		return nil, err
	}
	l := &live{rc: rc, ph: phasesFor(rc.smoke), in: in, fed: make([]bool, len(in.pool)),
		pickers: streams(rc.w, rc.seed, len(in.pool)), fbp: fbPicker(rc.seed, in),
		samples: map[string]int{}, m: map[string]metric{}}
	if l.tenants, err = writeTenants(rc.dir); err != nil {
		return nil, err
	}
	defer func() {
		l.closeClients()
		if l.d != nil {
			l.d.kill()
		}
	}()
	if err := l.setup(ctx); err != nil {
		return nil, err
	}
	if err := l.measure(ctx); err != nil {
		return nil, err
	}
	if err := l.durability(ctx); err != nil {
		return nil, err
	}
	l.closeClients()
	l.d.stop()
	l.d = nil
	if rc.trace {
		if err := l.replay(ctx); err != nil {
			return nil, err
		}
	}
	l.setQError()
	return &runResult{Workload: rc.w.name, Seed: rc.seed,
		Correct: l.failed.Load() == 0, Attempted: l.attempted.Load(), Failed: l.failed.Load(),
		Valid: l.valid, Samples: l.samples, Problems: l.problems, Metrics: l.m}, nil
}

func (l *live) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// problem records a failed output check; it counts as one failed operation.
func (l *live) problem(format string, args ...any) {
	l.failed.Add(1)
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

func (l *live) logPath(tag string) string {
	return filepath.Join(l.rc.dir, "xseedd-"+tag+".log")
}

// setup times exec → first served estimate, synopsis build included, over
// several launches on fresh stores, and keeps the last daemon running.
// Like the estimate throughput, setup_s is scaled to host speed 1 and no
// steal, by the mean speed and the steal share over all the launches.
func (l *live) setup(ctx context.Context) error {
	start := time.Now()
	stopSpeed := monitorSpeed(start)
	times, err := l.launches(ctx)
	host, serr := stopSpeed()
	if err := errors.Join(err, serr); err != nil {
		return err
	}
	speed, steal := host.segments(time.Since(start), 1)
	if speed[0] == 0 {
		return fmt.Errorf("no host speed samples during set-up")
	}
	l.set("setup_s", median(times)*speed[0]*(1-steal[0]), "s")
	l.set("client.setup_s", median(times), "s")
	return l.connect()
}

// launches starts the daemon l.ph.launches times on fresh stores and
// returns the seconds from exec to first served estimate of each.
func (l *live) launches(ctx context.Context) ([]float64, error) {
	w := l.rc.w
	create := api.CreateRequest{Name: synName, Dataset: w.dataset, Factor: w.factor, Seed: datasetSeed,
		Config: &api.SynopsisConfig{CardThreshold: w.card}}
	var times []float64
	for i := 0; i < l.ph.launches; i++ {
		if l.d != nil {
			l.d.kill()
		}
		l.store = filepath.Join(l.rc.dir, fmt.Sprintf("store-%d", i))
		start := time.Now()
		d, err := startDaemon(l.rc.xseedd, l.tenants, l.store, l.logPath(fmt.Sprint("setup-", i)))
		if err != nil {
			return nil, err
		}
		l.d = d
		t, err := d.awaitServing(ctx, start, &create, l.in.pool[0])
		if err != nil {
			return nil, err
		}
		times = append(times, t.Seconds())
	}
	return times, nil
}

// connect opens the load connections: on hot-http one SDK client whose
// pool holds at most two connections, elsewhere two xtp connections, the
// second of which carries feedback.
func (l *live) connect() error {
	var err error
	if l.http, err = l.d.httpClient(); err != nil {
		return err
	}
	l.ests = l.ests[:0]
	if l.rc.w.http {
		for range l.rc.w.callers {
			l.ests = append(l.ests, l.http)
		}
		l.fb = l.http
		return nil
	}
	for range 2 {
		x, err := l.d.xtpClient()
		if err != nil {
			return err
		}
		l.xtp = append(l.xtp, x)
	}
	for c := range l.rc.w.callers {
		l.ests = append(l.ests, l.xtp[c])
	}
	l.fb = l.xtp[1]
	return nil
}

func (l *live) closeClients() {
	for _, x := range l.xtp {
		x.Close()
	}
	l.xtp = nil
}

// phaseOut is what one phase recorded.
type phaseOut struct {
	calls []call
	acks  []ack
}

// phase runs traffic for dur: the closed-loop estimate callers when
// estimates is set, and feedback when feedback is set. Beside estimates,
// feedback is paced by the callers' progress, one batch per fbEveryCalls
// calls, so the read:write mix is the same on every run. (Paced by the
// clock instead, a slower host or daemon would serve fewer estimates per
// publish, lose cache hits to it and slow down further; on the measuring
// host that made read-write's scaled throughput vary by 10%.) Alone,
// feedback runs open-loop at fbPerSec.
func (l *live) phase(ctx context.Context, dur time.Duration, estimates, feedback bool) phaseOut {
	start := time.Now()
	end := start.Add(dur)
	var fb *fbSender
	if feedback {
		fb = &fbSender{l: l, start: start, inflight: make(chan struct{}, 64)}
	}
	var out phaseOut
	if estimates {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for c := range l.ests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calls := l.closedLoop(ctx, c, start, end, fb)
				mu.Lock()
				out.calls = append(out.calls, calls...)
				mu.Unlock()
			}()
		}
		wg.Wait()
	} else if feedback {
		interval := time.Second / fbPerSec
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			if !due.Before(end) {
				break
			}
			time.Sleep(time.Until(due))
			fb.send(ctx, due)
		}
	}
	if fb != nil {
		out.acks = fb.wait()
	}
	return out
}

// closedLoop is one caller: it sends its next batch as soon as the previous
// answer arrives, until end, and with fb set has a feedback batch sent after
// every fbEveryCalls calls.
func (l *live) closedLoop(ctx context.Context, c int, start, end time.Time, fb *fbSender) []call {
	est, p := l.ests[c], l.pickers[c]
	idx := make([]int, l.rc.w.batch)
	qs := make([]string, l.rc.w.batch)
	var calls []call
	for {
		t := time.Now()
		if !t.Before(end) {
			return calls
		}
		p.fill(idx)
		for i, k := range idx {
			qs[i] = l.in.pool[k]
		}
		res, err := est.EstimateBatch(ctx, qs)
		done := time.Now()
		calls = append(calls, call{at: done.Sub(start), dur: done.Sub(t)})
		l.attempted.Add(1)
		if !l.served(res, err, idx) {
			l.failed.Add(1)
		}
		if fb != nil && len(calls)%fbEveryCalls == 0 {
			fb.send(ctx, done)
		}
	}
}

// served checks one estimate answer. Read-only workloads must match the
// reference synopsis bit for bit; under concurrent feedback the snapshot
// moves, so mixed traffic is checked after the run instead.
func (l *live) served(res []xseed.Result, err error, idx []int) bool {
	if err != nil || len(res) != len(idx) {
		return false
	}
	for i, r := range res {
		switch {
		case r.Err != nil, math.IsNaN(r.Estimate), r.Estimate < 0:
			return false
		case !l.rc.w.mixed && r.Estimate != l.in.ref[idx[i]]:
			return false
		}
	}
	return true
}

// fbSender sends feedback batches without waiting for earlier ones to be
// acked, and times each ack from when its batch was due.
type fbSender struct {
	l        *live
	start    time.Time
	inflight chan struct{} // caps the batches awaiting an ack
	wg       sync.WaitGroup
	mu       sync.Mutex // guards the feedback picker and acks
	acks     []ack
}

// send sends the next feedback batch, due at due. At ~250 batches/s and
// ~3 ms per ack a handful are in flight; the cap only matters if the daemon
// stalls, and then lateness (or, when paced, the callers) shows it.
func (f *fbSender) send(ctx context.Context, due time.Time) {
	l := f.l
	f.inflight <- struct{}{}
	sent := time.Now()
	picks := make([]int, fbBatch)
	f.mu.Lock()
	l.fbp.fill(picks)
	f.mu.Unlock()
	items := l.in.fbItems(picks)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		errs, err := l.fb.FeedbackBatch(ctx, items)
		done := time.Now()
		<-f.inflight
		ok := err == nil && len(errs) == len(items)
		for _, e := range errs {
			ok = ok && e == nil
		}
		l.attempted.Add(1)
		if !ok {
			l.failed.Add(1)
		}
		f.mu.Lock()
		f.acks = append(f.acks, ack{due: due.Sub(f.start), sent: sent.Sub(f.start), done: done.Sub(f.start)})
		f.mu.Unlock()
		if ok {
			l.fedMu.Lock()
			for _, k := range picks {
				l.fed[l.in.fbIdx[k]] = true
			}
			l.fedMu.Unlock()
		}
	}()
}

// wait waits for every ack and returns them.
func (f *fbSender) wait() []ack {
	f.wg.Wait()
	return f.acks
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the warm-up and the measured window and derives the
// throughput, latency, server-cost and daemon-counter metrics.
func (l *live) measure(ctx context.Context) error {
	w := l.rc.w
	l.phase(ctx, l.ph.warmup, true, w.mixed)
	m0, err := l.d.scrape(ctx)
	if err != nil {
		return err
	}
	cpu0, err := l.d.cpu()
	if err != nil {
		return err
	}
	self0 := selfCPU()
	stopSpeed := monitorSpeed(time.Now())
	stopRSS := l.d.sampleRSS(segmentLen)
	out := l.phase(ctx, l.rc.measure, true, w.mixed)
	rss, err := stopRSS()
	if err != nil {
		return err
	}
	if len(rss) == 0 {
		return fmt.Errorf("no resident set samples in the measured window")
	}
	host, err := stopSpeed()
	if err != nil {
		return err
	}
	self1 := selfCPU()
	cpu1, err := l.d.cpu()
	if err != nil {
		return err
	}
	m1, err := l.d.scrape(ctx)
	if err != nil {
		return err
	}

	nseg := max(1, int(l.rc.measure/segmentLen))
	rate, p50, p99 := segmentStats(out.calls, l.rc.measure, nseg, w.batch)
	// Each segment's throughput and latency at the reference host speed.
	// Throughput is also scaled to no steal: a closed loop loses the
	// withheld time in full. The median call mostly falls between the
	// withheld slices, so latency is not.
	speed, steal := host.segments(l.rc.measure, nseg)
	var rateRef, p50Ref []float64
	var speedSum float64
	for i, s := range speed {
		if s > 0 {
			rateRef = append(rateRef, rate[i]/(s*(1-steal[i])))
			p50Ref = append(p50Ref, p50[i]*s)
			speedSum += s
		}
	}
	if len(rateRef) == 0 {
		return fmt.Errorf("no host speed samples in the measured window")
	}
	ests := float64(len(out.calls) * w.batch)
	var total time.Duration
	for _, c := range out.calls {
		total += c.dur
	}
	l.callRate = float64(len(out.calls)) / l.rc.measure.Seconds()
	l.meanCall = total / time.Duration(max(len(out.calls), 1))
	l.samples["est_calls"] = len(out.calls)
	l.samples["speed"] = len(host.speed)
	cpuPerEst := ratio(float64(cpu1-cpu0)/1e3, ests)
	l.set("est_per_s", median(rateRef), "1/s")
	l.set("est_p50_us", median(p50Ref), "us")
	l.set("server_cpu_us_per_est", cpuPerEst*speedSum/float64(len(rateRef)), "us")
	l.set("host.speed", median(speed), "ratio")
	var stolen float64
	for _, s := range steal {
		stolen += s
	}
	l.set("host.steal_share", stolen/float64(len(steal)), "ratio")
	l.set("client.est_per_s", median(rate), "1/s")
	l.set("client.est_p50_us", median(p50), "us")
	l.set("client.est_p99_us", median(p99), "us")
	l.set("server.cpu_us_per_est", cpuPerEst, "us")
	l.set("server_rss_mb", median(rss), "MB")
	l.samples["rss"] = len(rss)
	l.set("loadgen.cpu_s", (self1 - self0).Seconds(), "s")

	d := m1.sub(m0)
	hits, misses := d.sum("xseed_cache_hits_total"), d.sum("xseed_cache_misses_total")
	l.set("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	ph, pm := d.sum("xseed_plan_cache_hits_total"), d.sum("xseed_plan_cache_misses_total")
	l.set("plan_cache.hit_ratio", ratio(ph, ph+pm), "ratio")
	l.set("cache.evictions_per_est", ratio(d.sum("xseed_cache_evictions_total"), ests), "ratio")
	if w.http {
		const route = "POST /v1/synopses/{name}/estimate"
		l.set("transport.server_us", d.histMean("xseed_http_request_seconds", "route", route)*1e6, "us")
		l.set("transport.resp_bytes", d.histMean("xseed_http_response_bytes", "route", route), "B")
	} else {
		l.set("transport.server_us", d.histMean("xseed_xtp_request_seconds", "kind", "estimate")*1e6, "us")
		l.set("transport.resp_bytes", ratio(d.sum("xseed_xtp_bytes_total", "dir", "out"), d.sum("xseed_xtp_frames_total", "dir", "out")), "B")
	}
	// Stage clocks sample one query in 64, so they are read over the
	// daemon's life; on hot workloads parse and compile ran only while the
	// cache filled.
	for _, st := range []string{"cache_probe", "parse", "compile", "plan_run"} {
		l.set("stage."+st+"_ns", m1.histMean("xseed_estimate_stage_seconds", "stage", st)*1e9, "ns")
	}

	if w.mixed {
		l.feedbackMetrics(out.acks, d, l.rc.measure)
		return nil
	}
	// Every run reports every end-to-end metric, so read-only workloads
	// time feedback alone, after the window.
	f0, err := l.d.scrape(ctx)
	if err != nil {
		return err
	}
	fout := l.phase(ctx, l.ph.fbAlone, false, true)
	f1, err := l.d.scrape(ctx)
	if err != nil {
		return err
	}
	l.feedbackMetrics(fout.acks, f1.sub(f0), l.ph.fbAlone)
	return nil
}

// feedbackMetrics derives the ack latencies, generator lateness, and write
// path counters of the window that carried feedback. Like the estimate
// latency, the p50 is a median over the window's segments: a stall of the
// host moved the p50 over all acks of a read-only workload's feedback phase
// by up to a third.
func (l *live) feedbackMetrics(acks []ack, d promText, dur time.Duration) {
	late, lat := lateness(acks)
	byDue := make([]call, len(acks))
	for i, a := range acks {
		byDue[i] = call{at: a.due, dur: a.done - a.due}
	}
	_, p50, _ := segmentStats(byDue, dur, max(1, int(dur/segmentLen)), 1)
	p99, n := percentile(lat, 99)
	lp99, _ := percentile(late, 99)
	l.fbAcks = n
	l.samples["fb_acks"] = n
	l.valid = lp99 <= maxLateMs
	l.set("fb_ack_p50_ms", median(p50)/1e3, "ms")
	l.set("client.fb_ack_p99_ms", p99, "ms")
	l.set("loadgen.late_p99_ms", lp99, "ms")
	applied, pubs := d.sum("xseed_feedback_applied_total"), d.sum("xseed_feedback_publishes_total")
	appends := d.sum("xseed_store_appends_total")
	l.set("feedback.coalescing", ratio(applied, pubs), "ratio")
	l.set("feedback.publishes_per_s", pubs/dur.Seconds(), "1/s")
	l.set("store.fsyncs_per_event", ratio(d.sum("xseed_store_fsyncs_total"), appends), "ratio")
	l.set("store.batch_events_mean", d.histMean("xseed_store_batch_events"), "count")
	l.set("store.bytes_per_event", ratio(d.sum("xseed_store_append_bytes_total"), appends), "B")
}

// durability checks the served pool against a reference that absorbed the
// acked feedback, kills the daemon with −9 and restarts it on the same store
// (timing recovery), and requires the same estimates and snapshot bytes
// afterwards. kill −9 leaves the page cache intact, so this proves every
// acked event replays, not that it reached the disk.
func (l *live) durability(ctx context.Context) error {
	exp, err := l.in.expected(l.fed)
	if err != nil {
		return err
	}
	l.checkPool(ctx, exp, "after the run")
	before, err := l.snapshot(ctx)
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < l.ph.restarts; i++ {
		l.closeClients()
		l.d.kill()
		start := time.Now()
		d, err := startDaemon(l.rc.xseedd, l.tenants, l.store, l.logPath(fmt.Sprint("restart-", i)))
		if err != nil {
			return err
		}
		l.d = d
		t, err := d.awaitServing(ctx, start, nil, l.in.pool[0])
		if err != nil {
			return err
		}
		times = append(times, t.Seconds())
	}
	l.set("server.recover_s", median(times), "s")
	if err := l.connect(); err != nil {
		return err
	}
	l.checkPool(ctx, exp, "after kill -9 and restart")
	after, err := l.snapshot(ctx)
	if err != nil {
		return err
	}
	l.attempted.Add(1)
	if !bytes.Equal(before, after) {
		l.problem("snapshot after kill -9 and restart differs from the one before (%d vs %d bytes)", len(after), len(before))
	}
	return nil
}

// checkPool estimates the whole pool and compares it with want bit for bit.
func (l *live) checkPool(ctx context.Context, want []float64, when string) {
	wrong := 0
	for lo := 0; lo < len(l.in.pool); lo += sweepSize {
		hi := min(lo+sweepSize, len(l.in.pool))
		res, err := l.ests[0].EstimateBatch(ctx, l.in.pool[lo:hi])
		l.attempted.Add(1)
		bad := err != nil || len(res) != hi-lo
		for i := 0; !bad && i < len(res); i++ {
			if res[i].Err != nil || res[i].Estimate != want[lo+i] {
				wrong++
				bad = true
			}
		}
		if bad {
			l.failed.Add(1)
		}
	}
	if wrong > 0 {
		l.problems = append(l.problems, fmt.Sprintf("%s: pool estimates differ from the reference in %d batches", when, wrong))
	}
}

func (l *live) snapshot(ctx context.Context) ([]byte, error) {
	rc, err := l.http.SnapshotGet(ctx, synName)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// setQError reports the q-error of the served synopsis over the whole pool
// against exact actuals, before any feedback. The checks above prove the
// daemon serves the reference's values, so they are computed from it.
func (l *live) setQError() {
	q := make([]float64, len(l.in.pool))
	for i := range q {
		q[i] = qerror(l.in.ref[i], l.in.actual[i])
	}
	p90, n := percentile(q, 90)
	p99, _ := percentile(q, 99)
	l.samples["pool"] = n
	l.set("qerror_p90", p90, "ratio")
	l.set("qerror_p99", p99, "ratio")
}

// replay runs the per-layer replay twice on fresh state, untraced and then
// traced, and derives the per-layer metrics from the traced one.
func (l *live) replay(ctx context.Context) error {
	w := l.rc.w
	plan := replayPlan{estCalls: max(1, min(l.ph.replayCalls, int(l.callRate*5)))}
	if w.mixed {
		plan.fbEvery = fbEveryCalls
	} else {
		plan.fbAfter = max(1, min(l.ph.replayFB, l.fbAcks))
	}
	var wall [2]time.Duration
	var r *replayer
	for i, on := range []bool{false, true} {
		rp, err := newReplayer(ctx, w, l.in, filepath.Join(l.rc.dir, fmt.Sprint("replay-", i)), newTracer(on))
		if err != nil {
			return err
		}
		start := time.Now()
		err = rp.run(l.rc.seed, plan)
		wall[i] = time.Since(start)
		rp.close()
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		r = rp
	}
	l.attempted.Add(int64(r.misses))
	if r.wrong > 0 {
		l.problem("replay: %d re-executed misses differ from the registry's estimates", r.wrong)
	}
	for k, v := range r.layerMetrics() {
		l.m[k] = v
	}
	l.set("trace.overhead", wall[1].Seconds()/wall[0].Seconds()-1, "ratio")
	l.set("trace.unattributed_share", 1-float64(r.layerTimePerRequest())/float64(l.meanCall), "ratio")

	if err := os.MkdirAll(l.rc.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(l.rc.outDir, "trace-"+w.name+".json")
	if err := r.tr.writeChrome(path); err != nil {
		return err
	}
	fmt.Fprintf(l.rc.report, "%s: replayed %d estimate requests, %d spans -> %s\n", w.name, r.estReqs, len(r.tr.spans), path)
	r.tr.writeSelfTable(l.rc.report, "registry.estimate_batch", "xpath.parse", "estimate.compile", "estimate.plan_run")
	return nil
}
