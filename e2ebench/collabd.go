package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/remote"
)

// collabd is one child collabd process on a loopback port.
type collabd struct {
	cmd    *exec.Cmd
	url    string
	logf   *os.File
	http   *http.Client
	exited chan error
}

// startCollabd launches bin with its default flags plus extra, on a free
// loopback port, and returns once /readyz answers 200.
func startCollabd(bin, logPath string, extra ...string) (*collabd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the benchmark is killed before stop runs, the kernel kills the
	// server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start collabd: %w", err)
	}
	d := &collabd{cmd: cmd, url: "http://" + addr, logf: logf,
		http: &http.Client{Timeout: 60 * time.Second}, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("collabd exited before ready (%v); see %s", err, logPath)
		default:
		}
		if resp, err := d.http.Get(d.url + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("collabd not ready within 20s; see %s", logPath)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// stop kills the process and waits for it to exit. SIGKILL on purpose:
// the benchmark discards the server's state, so a graceful flush to the
// store directory would only add time.
func (d *collabd) stop() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.logf.Close()
	d.http.CloseIdleConnections()
}

// procSample is the process's CPU and peak RSS, read from /proc.
type procSample struct {
	cpuSec float64 // utime + stime over all threads
	hwmMB  float64 // VmHWM
}

// clockTicks is USER_HZ, fixed at 100 on Linux.
const clockTicks = 100

func (d *collabd) proc() (procSample, error) {
	pid := d.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	// Fields after the parenthesized comm: state is field 3, utime 14,
	// stime 15 (1-based), so 11 and 12 after the state.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return procSample{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(fields[11], 64)
	st, _ := strconv.ParseFloat(fields[12], 64)
	hwm, err := statusMB(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
	return procSample{cpuSec: (ut + st) / clockTicks, hwmMB: hwm}, err
}

// rssSampler polls the process's resident set while a phase runs.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

// sampleRSS reads VmRSS every 50ms until finish.
func (d *collabd) sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if mb, err := statusMB(path, "VmRSS:"); err == nil {
					s.mb = append(s.mb, mb)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// statusMB reads one kB field of /proc/<pid>/status in MB.
func statusMB(path, field string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, field)
}

// stats fetches /v1/stats.
func (d *collabd) stats() (*remote.Stats, error) {
	resp, err := d.http.Get(d.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st remote.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return &st, nil
}

// metrics scrapes /metrics into a name{labels} → value map.
func (d *collabd) metrics() (promSample, error) {
	resp, err := d.http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// promSample maps a series (name plus label block, as exposed) to its value.
type promSample map[string]float64

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// routeSeries names a per-route series of the serving metrics.
func routeSeries(name, route string) string {
	return fmt.Sprintf("%s{route=%q}", name, route)
}

// requestsServed sums 2xx–5xx responses on the three workload routes.
func (p promSample) requestsServed() float64 {
	var n float64
	for _, route := range []string{"/v1/optimize", "/v1/update", "/v1/artifact"} {
		for _, code := range []string{"2xx", "3xx", "4xx", "5xx"} {
			n += p[fmt.Sprintf("collab_http_requests_total{route=%q,code=%q}", route, code)]
		}
	}
	return n
}
