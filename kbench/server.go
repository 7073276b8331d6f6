package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"kronbip/internal/spec"
)

// server is one `kronbip serve` child process on an ephemeral port.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
}

// startServer launches the binary and blocks until it has printed its
// bound address.  Readiness beyond that is the caller's blocking requests.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			addr := strings.Fields(line[i+len("listening on http://"):])[0]
			s.base = "http://" + addr
			break
		}
	}
	// Keep draining stderr so the child never blocks on a full pipe; the
	// drain ends when the child exits and closes its end.
	go func() {
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(s.exited)
	}()
	if s.base == "" {
		s.kill()
		return nil, fmt.Errorf("%s serve exited before printing its address", bin)
	}
	return s, nil
}

// stop asks the server to drain (SIGINT) and waits for it to exit,
// killing it if the drain overruns.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// specQuery renders a spec as the ?factor=&mode=&seed= query.
func specQuery(sp spec.Spec) url.Values {
	q := url.Values{}
	for _, f := range sp.Factors {
		q.Add("factor", f)
	}
	q.Set("mode", sp.Mode)
	q.Set("seed", strconv.FormatInt(sp.Seed, 10))
	return q
}

// getOK issues a GET and returns the body of a 200 response.
func getOK(ctx context.Context, c *http.Client, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: status %d: %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// procCPU returns the utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procRSS returns VmRSS of pid in MB.
func procRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS for pid %d", pid)
}

// rssSampler samples the server's VmRSS every period until stopped.
type rssSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func sampleRSS(pid int, period time.Duration) *rssSampler {
	r := &rssSampler{stopc: make(chan struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			if mb, err := procRSS(pid); err == nil {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

func (r *rssSampler) stop() []float64 {
	close(r.stopc)
	r.wg.Wait()
	return r.samples
}

// clientCPU is this process's user+system CPU time.
func clientCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serverCounters is the subset of GET /metrics.json the benchmark reads.
type serverCounters struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

func scrape(ctx context.Context, c *http.Client, base string) (*serverCounters, error) {
	body, err := getOK(ctx, c, base+"/metrics.json")
	if err != nil {
		return nil, err
	}
	var m serverCounters
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &m, nil
}
