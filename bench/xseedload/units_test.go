package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPickerIsSeeded(t *testing.T) {
	draw := func(seed int64, tag string, rank []int) []int {
		p := newPicker(seed, tag, 100, rank)
		out := make([]int, 50)
		p.fill(out)
		return out
	}
	rank := ranking(100)
	if !slices.Equal(rank, ranking(100)) {
		t.Fatal("ranking is not fixed")
	}
	for _, r := range [][]int{nil, rank} {
		a, b := draw(7, "est/0", r), draw(7, "est/0", r)
		if !slices.Equal(a, b) {
			t.Fatalf("same seed and stream gave %v and %v", a, b)
		}
		if slices.Equal(a, draw(8, "est/0", r)) || slices.Equal(a, draw(7, "est/1", r)) {
			t.Fatal("another seed or stream repeated the same picks")
		}
		for _, i := range a {
			if i < 0 || i >= 100 {
				t.Fatalf("pick %d out of range", i)
			}
		}
	}
	// Zipf picks concentrate on the head of the shared ranking.
	p := newPicker(7, "est/0", 100, rank)
	head := 0
	for range 1000 {
		if slices.Index(rank, p.next()) < 10 {
			head++
		}
	}
	if head < 500 {
		t.Fatalf("only %d of 1000 Zipf picks in the top 10 ranks", head)
	}
}

func TestDriftedCardIsFixedPerQuery(t *testing.T) {
	a := driftedCard(3, "/a/b", 100)
	if a != driftedCard(3, "/a/b", 100) || a < 50 || a > 150 {
		t.Fatalf("drifted card %v not fixed or outside [50, 150]", a)
	}
	if driftedCard(3, "/a/b", 0) != 1 {
		t.Fatal("drifted card below 1")
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}} {
		got, n := percentile(v, c.p)
		if got != c.want || n != len(v) {
			t.Errorf("p%v = %v over %d samples, want %v over %d", c.p, got, n, c.want, len(v))
		}
	}
	if got, n := percentile(nil, 50); got != 0 || n != 0 {
		t.Errorf("empty percentile = %v over %d", got, n)
	}
	if !slices.Equal(v, []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}) {
		t.Error("percentile reordered its input")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) on the same data.
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 3, 1, 4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.data); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSegmentMedian(t *testing.T) {
	// Ten calls of 100 µs over one second, plus a 1 s stall completing in the
	// last segment: the median segment does not see the stall.
	var calls []call
	for i := range 10 {
		calls = append(calls, call{at: time.Duration(i) * 100 * time.Millisecond, dur: 100 * time.Microsecond})
	}
	calls = append(calls, call{at: 999 * time.Millisecond, dur: time.Second})
	rate, p50, p99 := segmentStats(calls, time.Second, 5, 4)
	if !slices.Equal(rate, []float64{40, 40, 40, 40, 60}) {
		t.Errorf("rates %v", rate)
	}
	if median(rate) != 40 || median(p50) != 100 || median(p99) != 100 {
		t.Errorf("medians: rate %v p50 %v p99 %v", median(rate), median(p50), median(p99))
	}
	if p99[4] != 1e6 {
		t.Errorf("stalled segment p99 = %v µs", p99[4])
	}
}

func TestSpeedSegments(t *testing.T) {
	ms := time.Millisecond
	samples := []speedSample{
		{at: 10 * ms, cpu: 0, d: speedRef},
		{at: 20 * ms, cpu: 0, d: speedRef},
		{at: 30 * ms, cpu: 1, d: 2 * speedRef}, // CPU 1 at half speed
		{at: 500 * ms, cpu: 1, d: speedRef},
	}
	// Segment 0 averages its two CPUs, segment 1 has only CPU 1, segment 2
	// has no samples.
	got := speedSegments(samples, 900*ms, 3)
	if !slices.Equal(got, []float64{0.75, 1, 0}) {
		t.Fatalf("speeds %v", got)
	}
}

func TestStealShares(t *testing.T) {
	ms := time.Millisecond
	rs := []stealReading{
		{at: 0, stolen: 10, wanted: 100},
		{at: 200 * ms, stolen: 10, wanted: 150},
		{at: 500 * ms, stolen: 20, wanted: 200}, // 10 of 100 ticks stolen in segment 0
		{at: 900 * ms, stolen: 20, wanted: 300}, // none of 100 in segment 1
	}
	got := stealShares(rs, time.Second, 2)
	if !slices.Equal(got, []float64{0.1, 0}) {
		t.Fatalf("steal shares %v", got)
	}
	if got := stealShares(nil, time.Second, 2); !slices.Equal(got, []float64{0, 0}) {
		t.Fatalf("steal shares without readings %v", got)
	}
	r, err := readSteal()
	if err != nil || r.wanted < r.stolen {
		t.Fatalf("readSteal = %+v, %v", r, err)
	}
}

func TestMonitorSamplesEveryCPU(t *testing.T) {
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) == 0 {
		t.Fatalf("allowed CPUs %v: %v", cpus, err)
	}
	stop := monitorSpeed(time.Now())
	time.Sleep(10 * speedEvery)
	host, err := stop()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(host.steal); n < 2 || host.steal[n-1].wanted < host.steal[0].wanted {
		t.Errorf("steal readings %+v: want a first and a last, counters not falling", host.steal)
	}
	seen := map[int]bool{}
	for _, s := range host.speed {
		if s.d <= 0 {
			t.Fatalf("sample %+v without CPU time", s)
		}
		seen[s.cpu] = true
	}
	for _, c := range cpus {
		if !seen[c] {
			t.Errorf("no speed samples from CPU %d (of %v)", c, cpus)
		}
	}
}

func TestOpenLoopLatenessCountsFromDue(t *testing.T) {
	ms := time.Millisecond
	late, lat := lateness([]ack{
		{due: 0, sent: 0, done: 2 * ms},
		{due: 4 * ms, sent: 9 * ms, done: 11 * ms}, // the generator stalled 5 ms
	})
	if !slices.Equal(late, []float64{0, 5}) || !slices.Equal(lat, []float64{2, 7}) {
		t.Fatalf("late %v latency %v", late, lat)
	}
}

func TestPromTextDiff(t *testing.T) {
	parse := func(s string) promText {
		p, err := parsePromText(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := parse(`# TYPE xseed_cache_hits_total counter
xseed_cache_hits_total 10
xseed_xtp_request_seconds_sum{kind="estimate"} 0.5
xseed_xtp_request_seconds_count{kind="estimate"} 100
xseed_xtp_request_seconds_sum{kind="feedback"} 9
xseed_xtp_request_seconds_count{kind="feedback"} 9
`)
	after := parse(`xseed_cache_hits_total 25
xseed_xtp_request_seconds_sum{kind="estimate"} 1.5
xseed_xtp_request_seconds_count{kind="estimate"} 300
xseed_xtp_request_seconds_sum{kind="feedback"} 9
xseed_xtp_request_seconds_count{kind="feedback"} 9
xseed_estimate_stage_seconds_sum{stage="parse",synopsis="a"} 2e-06
xseed_estimate_stage_seconds_count{stage="parse",synopsis="a"} 1
xseed_estimate_stage_seconds_sum{stage="parse",synopsis="b"} 4e-06
xseed_estimate_stage_seconds_count{stage="parse",synopsis="b"} 1
`)
	d := after.sub(before)
	if got := d.sum("xseed_cache_hits_total"); got != 15 {
		t.Errorf("hits diff %v", got)
	}
	if got := d.histMean("xseed_xtp_request_seconds", "kind", "estimate"); got != 0.005 {
		t.Errorf("estimate mean %v", got)
	}
	if got := d.histMean("xseed_xtp_request_seconds", "kind", "feedback"); got != 0 {
		t.Errorf("idle feedback mean %v", got)
	}
	if got := after.histMean("xseed_estimate_stage_seconds", "stage", "parse"); got != 3e-6 {
		t.Errorf("parse mean over synopses %v", got)
	}
	if _, err := parsePromText(strings.NewReader("xseed_x notanumber\n")); err == nil {
		t.Error("bad value parsed")
	}
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	// Two pairs ran in a slow hour. The new run loses every pair, but not
	// 9/10 of all (base, new) combinations: its fast runs beat the slow base.
	episode := []float64{100, 100, 100, 100, 90, 90, 100, 100, 100, 100}
	for _, c := range []struct {
		name         string
		base, cur    []float64
		higherBetter bool
		want         string
	}{
		{"same", base, base, true, unchanged},
		{"small drift", base, scale(1.01), true, unchanged},
		{"resolved loss inside the bound", base, scale(0.95), true, worseInBound},
		{"throughput gain", base, scale(1.2), true, better},
		{"throughput loss", base, scale(0.8), true, worse},
		{"latency drop", base, scale(0.8), false, better},
		{"latency rise", base, scale(1.2), false, worse},
		{"noisy base", noisy, scale(1.05), true, unresolved},
		{"noisy base, every run worse", noisy, scale(0.5), true, worse},
		{"slow hour shared by two pairs", episode, []float64{95, 95, 95, 95, 85.5, 85.5, 95, 95, 95, 95}, true, worseInBound},
	} {
		if got := verdict(c.base, c.cur, 0.1, c.higherBetter); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Without a bound a resolved loss of any size is worse, and a loss
	// inside the base's own spread is not.
	for _, c := range []struct {
		name string
		cur  []float64
		want string
	}{
		{"5% slower", scale(0.95), worse},
		{"1% slower", scale(0.99), unchanged},
		{"5% faster", scale(1.05), better},
	} {
		if got := verdict(base, c.cur, -1, true); got != c.want {
			t.Errorf("unbounded %s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []specMetric{{Name: "est_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}},
		PerLayer: []specMetric{{Name: "plan_run_ns", Unit: "ns", Better: "lower"}},
	}
	runs := func(rate float64, failed int64) []*runResult {
		var out []*runResult
		for i := range 3 {
			out = append(out, &runResult{Workload: "hot-xtp", Seed: int64(i), Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"setup_s": {1, "s"}, "est_per_s": {rate + float64(i), "1/s"},
					"plan_run_ns": {1e6 / rate, "ns"}}})
		}
		return out
	}
	var buf bytes.Buffer
	// A base run whose seed the new side lacks has no pair and is left out.
	unpaired := &runResult{Workload: "hot-xtp", Seed: 9, Attempted: 100,
		Metrics: map[string]metric{"setup_s": {1, "s"}, "est_per_s": {1, "1/s"}, "plan_run_ns": {1, "ns"}}}
	if compare(&buf, spec, append(runs(1000, 0), unpaired), runs(1000, 0)) {
		t.Errorf("identical runs regressed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "3 pairs of runs") {
		t.Errorf("unpaired run counted:\n%s", buf.String())
	}
	buf.Reset()
	if !compare(&buf, spec, runs(1000, 0), runs(700, 0)) {
		t.Errorf("30%% throughput loss not flagged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "plan_run_ns") || strings.Count(buf.String(), worse) != 2 {
		t.Errorf("per-layer row missing or not worse:\n%s", buf.String())
	}
	if !compare(&buf, spec, runs(1000, 0), runs(1000, 1)) {
		t.Errorf("failed operations not flagged:\n%s", buf.String())
	}
}
