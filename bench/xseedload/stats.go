package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of v by the
// nearest-rank method, with the number of samples it rests on.
func percentile(v []float64, p float64) (float64, int) {
	if len(v) == 0 {
		return 0, 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1], len(s)
}

// median is the middle value of v (mean of the two middle ones for even n).
func median(v []float64) float64 {
	q := quartiles(v)
	return q[1]
}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method), so
// spreads computed here match the ones a Python reader computes.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

// spread is the interquartile range of v as a share of its median.
func spread(v []float64) float64 {
	q := quartiles(v)
	if q[1] == 0 {
		return 0
	}
	return math.Abs((q[2] - q[0]) / q[1])
}

// call is one timed client call: when it completed, relative to the start
// of its phase, and how long it took.
type call struct {
	at, dur time.Duration
}

// segmentStats splits calls into nseg equal segments of a phase of length
// phase (by completion time) and returns, per segment, the estimates per
// second (each call carries perCall estimates) and the p50 and p99 call
// latency in µs. Reporting the median over segments keeps one stalled
// segment on a shared host from moving the result.
func segmentStats(calls []call, phase time.Duration, nseg, perCall int) (rate, p50, p99 []float64) {
	segLen := phase / time.Duration(nseg)
	lat := make([][]float64, nseg)
	for _, c := range calls {
		i := min(int(c.at/segLen), nseg-1)
		lat[i] = append(lat[i], float64(c.dur)/float64(time.Microsecond))
	}
	for _, l := range lat {
		rate = append(rate, float64(len(l)*perCall)/segLen.Seconds())
		a, _ := percentile(l, 50)
		b, _ := percentile(l, 99)
		p50, p99 = append(p50, a), append(p99, b)
	}
	return rate, p50, p99
}

// ack is one open-loop request: when it was due, when the generator sent it,
// and when its reply arrived, all relative to the schedule's start.
type ack struct {
	due, sent, done time.Duration
}

// lateness returns how late the generator sent each request (ms) and each
// request's latency timed from when it was due (ms), so a stall that delays
// later sends is charged to them instead of hidden.
func lateness(acks []ack) (late, latency []float64) {
	for _, a := range acks {
		late = append(late, float64(a.sent-a.due)/float64(time.Millisecond))
		latency = append(latency, float64(a.done-a.due)/float64(time.Millisecond))
	}
	return late, latency
}
