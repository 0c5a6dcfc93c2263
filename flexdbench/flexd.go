package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildFlexd compiles cmd/flexd from the tree under test into the
// build directory and returns the binary's path.
func buildFlexd(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "flexd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/flexd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building flexd: %w", err)
	}
	return filepath.Abs(bin)
}

// flexd is one running flexd process.
type flexd struct {
	cmd   *exec.Cmd
	log   *os.File
	base  string // http://host:port
	start time.Time
	done  chan error
}

// startFlexd execs flexd on a free loopback port with the deployed
// flags plus the benchmark's: two shards, a WAL in dataDir, tracing
// off, stderr to logPath.
func startFlexd(bin, dataDir, fsync, logPath string) (*flexd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, flexdArgs(addr, dataDir, fsync)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// flexd must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &flexd{cmd: cmd, log: logf, base: "http://" + addr, done: make(chan error, 1)}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

func flexdArgs(addr, dataDir, fsync string) []string {
	return []string{"-addr", addr, "-shards", "2", "-data-dir", dataDir, "-fsync", fsync, "-trace-ring", "-1"}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until flexd answers 200 with the expected
// stored count, and returns the time since exec.
func (p *flexd) waitHealthy(c *client, stored int) (time.Duration, error) {
	deadline := p.start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			return 0, fmt.Errorf("flexd exited during boot: %v", err)
		default:
		}
		var h struct {
			Status string `json:"status"`
			Stored int    `json:"stored"`
		}
		code, body, err := c.do("GET", p.base+"/healthz", nil)
		if err == nil && code == http.StatusOK && json.Unmarshal(body, &h) == nil && h.Status == "ok" {
			if h.Stored != stored {
				return 0, fmt.Errorf("flexd booted with stored=%d, want %d", h.Stored, stored)
			}
			return time.Since(p.start), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, errors.New("flexd did not become healthy within 60s")
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (p *flexd) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// stop sends SIGTERM and waits for the drain to finish (SIGKILL after
// 30s). A non-zero exit after SIGTERM is an error: flexd drains
// cleanly by contract.
func (p *flexd) stop() error {
	defer p.log.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		p.done <- err
		return err
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		err := <-p.done
		p.done <- err
		return fmt.Errorf("flexd ignored SIGTERM for 30s")
	}
}

// client is the benchmark's HTTP client: one keep-alive connection,
// no compression, and a reusable response buffer so reading a
// multi-megabyte body allocates nothing in steady state.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// do sends one request and reads the whole response. The returned body
// aliases the client's buffer and is valid until the next call.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// closeIdle drops the pooled connection (after its flexd is gone).
func (c *client) closeIdle() { c.hc.CloseIdleConnections() }
