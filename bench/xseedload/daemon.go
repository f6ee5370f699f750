package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xseed/api"
	"xseed/client"
)

// buildDir holds, relative to the repository root the benchmark runs from,
// the daemon binary and each run's stores and logs.
const buildDir = ".bench_build"

// buildDaemon compiles ./cmd/xseedd of the current directory into dir.
func buildDaemon(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "xseedd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xseedd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build xseedd: %w", err)
	}
	return bin, nil
}

// daemon is one running xseedd process.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	xtpAddr  string
	done     chan struct{} // closed once the process has been reaped
}

// writeTenants writes the one-tenant -tenants file every daemon runs with, so
// bearer-token auth is on the request path.
func writeTenants(dir string) (string, error) {
	path := filepath.Join(dir, "tenants.json")
	b, _ := json.Marshal([]map[string]string{{"id": tenantID, "token": token}})
	return path, os.WriteFile(path, b, 0o644)
}

// startDaemon execs xseedd on fresh loopback ports over storeDir, with
// group-committed durable feedback. It does not wait for readiness.
//
// Background compaction is pushed past the end of any run: its default
// 15 s tick would otherwise fold the delta log during some runs and not
// others, so both the measured window and recovery (which replays the log)
// would vary with where the tick fell.
func startDaemon(bin, tenants, storeDir, logPath string) (*daemon, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	d := &daemon{httpAddr: ports[0], xtpAddr: ports[1], done: make(chan struct{})}
	// Access logs are info-level lines per HTTP request; warn keeps them off
	// the measured path.
	d.cmd = exec.Command(bin, "-addr", d.httpAddr, "-xtp", d.xtpAddr, "-log-level", "warn",
		"-tenants", tenants, "-store-dir", storeDir, "-store-fsync=batch", "-store-compact-interval=1h")
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start xseedd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// kill ends the process with SIGKILL and waits until it is reaped.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// stop asks for a graceful shutdown, escalating to SIGKILL after 10 s.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// httpClient returns an SDK client for the daemon's HTTP listener, capped at
// two connections and bound to the bench synopsis.
func (d *daemon) httpClient() (*client.Client, error) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	c, err := client.New(d.httpAddr, client.WithHTTPClient(hc), client.WithToken(token))
	if err != nil {
		return nil, err
	}
	return c.Synopsis(synName), nil
}

// xtpClient dials one authenticated xtp connection bound to the bench synopsis.
func (d *daemon) xtpClient() (*client.XTP, error) {
	return client.DialXTP(d.xtpAddr, client.WithXTPSynopsis(synName), client.WithXTPToken(token))
}

// awaitServing polls until an estimate of probe succeeds, creating the
// synopsis first when create is set, and returns the time since start. It
// gives up after a minute or when the process exits. The pause between
// attempts is short, but not zero: a busy poll takes a CPU from the
// starting daemon and made set-up times three times noisier.
func (d *daemon) awaitServing(ctx context.Context, start time.Time, create *api.CreateRequest, probe string) (time.Duration, error) {
	c, err := d.httpClient()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for {
		if create != nil {
			_, err = c.Create(ctx, *create)
			if err == nil {
				create = nil
			}
		}
		if create == nil {
			var resp api.EstimateResponse
			resp, err = c.Estimate(ctx, synName, api.EstimateRequest{Query: probe})
			if err == nil && len(resp.Results) == 1 && resp.Results[0].Error == nil {
				return time.Since(start), nil
			}
		}
		if d.exited() {
			return 0, fmt.Errorf("xseedd exited before serving: %v", err)
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("xseedd not serving: %v", err)
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// rssMB returns the daemon's resident set (VmRSS) in MB.
func (d *daemon) rssMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// sampleRSS reads the daemon's resident set once per period every until
// stopped, and returns the readings in MB. The peak (VmHWM) is not used: it
// is wherever one garbage collection cycle happened to peak, and on
// read-write it rose by up to a fifth in some runs.
func (d *daemon) sampleRSS(every time.Duration) (stop func() ([]float64, error)) {
	done, finished := make(chan struct{}), make(chan struct{})
	var mbs []float64
	var err error
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			var mb float64
			if mb, err = d.rssMB(); err != nil {
				return
			}
			mbs = append(mbs, mb)
		}
	}()
	return func() ([]float64, error) {
		close(done)
		<-finished
		return mbs, err
	}
}

// scrape fetches and parses the daemon's /metrics exposition.
func (d *daemon) scrape(ctx context.Context) (promText, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.httpAddr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parsePromText(resp.Body)
}
