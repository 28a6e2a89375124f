package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serveProc is one running staub-serve process.
type serveProc struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	drained chan struct{} // closed when the process's stderr reaches EOF
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// startServer execs the staub-serve binary on a free loopback port and
// returns once /healthz answers 200. The child is killed if this process
// dies first, so no run leaves a server behind.
func startServer(ctx context.Context, bin string) (*serveProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-jobs", fmt.Sprint(serverJobs), "-drain", "5s")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serveProc{cmd: cmd, drained: make(chan struct{})}
	found := make(chan string, 1)
	go func() {
		// The server logs one line per request; keep reading so it never
		// blocks on a full pipe.
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				found <- m[1]
				break
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case s.base = <-found:
	case <-s.drained:
		_ = cmd.Wait()
		return nil, errors.New("staub-serve exited before listening")
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("staub-serve did not report its address within 20s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	s.client = &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: maxClients,
			MaxConnsPerHost:     maxClients,
			DisableCompression:  true,
		},
	}
	for {
		code, _, _, err := s.do(ctx, http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return s, nil
		}
		select {
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 10s)
// and reaps it.
func (s *serveProc) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	_ = s.cmd.Wait()
}

// do sends one request and returns the status code, the X-Request-Id
// header and the whole body.
func (s *serveProc) do(ctx context.Context, method, path string, body []byte) (int, string, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Request-Id"), out, err
}

// scrape reads /metrics into a map from series (name plus label set) to
// value.
func (s *serveProc) scrape(ctx context.Context) (metricSet, error) {
	code, _, body, err := s.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	return parseMetrics(string(body))
}

// metricSet is one /metrics scrape.
type metricSet map[string]float64

func parseMetrics(text string) (metricSet, error) {
	out := metricSet{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of the named metric whose label set contains
// each of the given label pairs (e.g. `pass="translate"`).
func (m metricSet) sum(name string, labels ...string) float64 {
	var t float64
	for series, v := range m {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			t += v
		}
	}
	return t
}

// procCPU returns the process's user+system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / time.Duration(clockTicks()), nil
}

// stealTicks is the machine's CPU time stolen by the hypervisor so far,
// in clock ticks (the steal column of /proc/stat); 0 when unreadable.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// clockTicks is the kernel's USER_HZ, read from the auxiliary vector
// (AT_CLKTCK); 100 when it cannot be read.
func clockTicks() int64 {
	raw, err := os.ReadFile("/proc/self/auxv")
	if err == nil {
		for i := 0; i+16 <= len(raw); i += 16 {
			if binary.LittleEndian.Uint64(raw[i:]) == 17 {
				if v := int64(binary.LittleEndian.Uint64(raw[i+8:])); v > 0 {
					return v
				}
			}
		}
	}
	return 100
}

// peakRSS returns the process's VmHWM in MiB.
func peakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
