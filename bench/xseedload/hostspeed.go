package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The measuring host is a shared VM. Each of its vCPUs flips, every few
// seconds, between full speed and about 1.7 times slower, as other tenants'
// threads come and go on the physical core beneath it. Pure arithmetic
// keeps its speed; map, branch and load/store heavy code like xseedd's does
// not. Over ten consecutive runs this moved raw estimate throughput by
// 10-36% (interquartile range over median), more than any bound may be.
//
// So every run samples each CPU's speed while it measures: a pinned thread
// per CPU times a small fixed task of that kind every speedEvery, in thread
// CPU time so that waiting for the CPU does not count. The end-to-end
// estimate metrics are each segment's measurement scaled by the speed
// measured during that segment, which took their spread to 3-7%.
//
// Thread CPU time also leaves out the time the hypervisor withholds a vCPU
// altogether (steal). For a minute or so at a time, the host withheld 10-20%
// of the CPU time the benchmark wanted, and estimate throughput fell by
// about as much while the speed task saw nothing. So the monitor also
// reads the steal counter, and throughput and set-up time, which lose the
// withheld time in full, are scaled by the share of the CPUs' time the host
// gave.

const (
	speedEvery = 10 * time.Millisecond
	stealEvery = 50 * time.Millisecond

	// speedRef is the speed task's CPU time on the measuring host (2 vCPUs,
	// Intel Xeon, Go 1.24) while a workload runs and no other tenant
	// contends the vCPU: the fast mode of its samples. A speed of 1 is that
	// host undisturbed, and the scaled metrics read as measured there.
	speedRef = 50 * time.Microsecond
)

// speedSample is one timing of the speed task on one CPU.
type speedSample struct {
	at  time.Duration // since the phase started
	cpu int
	d   time.Duration // thread CPU time the task took
}

// speedTask is the fixed work the monitor times: string-keyed map inserts
// and lookups and a small sort. It touches a few KiB, so it runs from L1
// and times the core, not the caches the workload leaves behind.
type speedTask struct {
	keys []string
	m    map[string]int
	base []int
	v    []int
	sink int
}

func newSpeedTask() *speedTask {
	t := &speedTask{m: make(map[string]int, 64), base: make([]int, 256), v: make([]int, 256)}
	for i := range 64 {
		t.keys = append(t.keys, fmt.Sprintf("/site/people/person%d/name", i))
	}
	x := uint32(2463534242)
	for i := range t.base {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t.base[i] = int(x % 1000)
	}
	return t
}

func (t *speedTask) run() {
	for r := range 16 {
		clear(t.m)
		for i, k := range t.keys {
			t.m[k] = i + r
		}
		for _, k := range t.keys {
			t.sink += t.m[k]
		}
	}
	for r := range 4 {
		copy(t.v, t.base)
		slices.Sort(t.v)
		t.sink += t.v[r]
	}
}

// stealReading is the host's cumulative CPU time, in USER_HZ ticks, from
// the aggregate cpu line of /proc/stat.
type stealReading struct {
	at     time.Duration // since the phase started
	stolen uint64        // steal: a vCPU had work but the hypervisor ran something else
	wanted uint64        // every state but idle and iowait, steal included
}

// readSteal reads the aggregate cpu line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, ...
func readSteal() (stealReading, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealReading{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealReading{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return stealReading{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return stealReading{stolen: v[7], wanted: v[0] + v[1] + v[2] + v[5] + v[6] + v[7]}, nil
}

// hostLog is what the monitor recorded.
type hostLog struct {
	speed []speedSample
	steal []stealReading // one at the start, every stealEvery, one at the stop
}

// segments returns each segment's speed and the share of the CPU time the
// benchmark wanted that the host withheld.
func (h hostLog) segments(phase time.Duration, nseg int) (speed, steal []float64) {
	return speedSegments(h.speed, phase, nseg), stealShares(h.steal, phase, nseg)
}

// monitorSpeed starts one sampler per CPU this process may run on and a
// reader of the steal counter, and returns a function that stops them and
// returns what they recorded.
func monitorSpeed(start time.Time) (stop func() (hostLog, error)) {
	cpus, err := allowedCPUs()
	if err != nil {
		return func() (hostLog, error) { return hostLog{}, err }
	}
	done := make(chan struct{})
	var mu sync.Mutex
	var rec hostLog
	var firstErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for stopping := false; ; {
			r, err := readSteal()
			r.at = time.Since(start)
			mu.Lock()
			if err != nil {
				firstErr = err
			}
			rec.steal = append(rec.steal, r)
			mu.Unlock()
			if err != nil || stopping {
				return
			}
			select {
			case <-done:
				stopping = true
			case <-tick.C:
			}
		}
	}()
	for _, cpu := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The thread stays locked, so it exits with the goroutine and
			// its one-CPU affinity never reaches other goroutines.
			runtime.LockOSThread()
			if err := pinThread(cpu); err != nil {
				mu.Lock()
				firstErr = err
				mu.Unlock()
				return
			}
			t := newSpeedTask()
			t.run()
			tick := time.NewTicker(speedEvery)
			defer tick.Stop()
			for {
				c := threadCPU()
				t.run()
				d := threadCPU() - c
				mu.Lock()
				rec.speed = append(rec.speed, speedSample{at: time.Since(start), cpu: cpu, d: d})
				mu.Unlock()
				select {
				case <-done:
					return
				case <-tick.C:
				}
			}
		}()
	}
	return func() (hostLog, error) {
		close(done)
		wg.Wait()
		return rec, firstErr
	}
}

// stealShares splits a phase of length phase into nseg equal segments and
// returns, per segment, the share of the CPU time wanted that was stolen,
// from the last readings at or before the segment's two ends.
func stealShares(rs []stealReading, phase time.Duration, nseg int) []float64 {
	out := make([]float64, nseg)
	if len(rs) == 0 {
		return out
	}
	segLen := phase / time.Duration(nseg)
	edge := func(t time.Duration) stealReading {
		r := rs[0]
		for _, x := range rs {
			if x.at > t {
				break
			}
			r = x
		}
		return r
	}
	for i := range out {
		a, b := edge(time.Duration(i)*segLen), edge(time.Duration(i+1)*segLen)
		if b.wanted > a.wanted {
			out[i] = float64(b.stolen-a.stolen) / float64(b.wanted-a.wanted)
		}
	}
	return out
}

// speedSegments splits samples into nseg equal segments of a phase of
// length phase and returns each segment's speed: per CPU the mean of
// speedRef/d over its samples, averaged over the CPUs sampled. A segment
// without samples gets 0.
func speedSegments(samples []speedSample, phase time.Duration, nseg int) []float64 {
	segLen := phase / time.Duration(nseg)
	type acc struct {
		sum float64
		n   int
	}
	per := make([]map[int]*acc, nseg)
	for i := range per {
		per[i] = map[int]*acc{}
	}
	for _, s := range samples {
		i := min(int(s.at/segLen), nseg-1)
		a := per[i][s.cpu]
		if a == nil {
			a = &acc{}
			per[i][s.cpu] = a
		}
		a.sum += float64(speedRef) / float64(max(s.d, 1))
		a.n++
	}
	out := make([]float64, nseg)
	for i, m := range per {
		for _, a := range m {
			out[i] += a.sum / float64(a.n) / float64(len(m))
		}
	}
	return out
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuMask is a Linux CPU affinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for w, bitsSet := range m {
		for bitsSet != 0 {
			b := bits.TrailingZeros64(bitsSet)
			cpus = append(cpus, w*64+b)
			bitsSet &^= 1 << b
		}
	}
	return cpus, nil
}

// pinThread restricts the calling OS thread to one CPU.
func pinThread(cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity cpu %d: %w", cpu, e)
	}
	return nil
}
