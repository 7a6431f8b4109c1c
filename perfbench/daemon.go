package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// clients is the number of closed-loop clients, and so the cap on the
// load generator's connections to the daemon.
const clients = 2

// daemon is one trustnetd child process serving on loopback from a
// fresh state directory.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	client *http.Client
	exited chan struct{}
}

// startDaemon launches bin with its data and output directories inside
// a new state directory under stateRoot, and returns once the daemon
// answers its health probe.
func startDaemon(ctx context.Context, bin, stateRoot string) (*daemon, error) {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "daemon-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "trustnetd.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close()
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data", filepath.Join(dir, "data"), "-out", filepath.Join(dir, "out"))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start trustnetd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read through d.exited only
		close(d.exited)
	}()
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	d.client = &http.Client{Transport: tr}

	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			if _, err := d.call(ctx, "GET", "/healthz", nil, http.StatusOK); err == nil {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("trustnetd exited during start-up (log in %s)", dir)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("trustnetd did not become healthy within 20s")
		}
	}
}

// pid returns the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM (SIGKILL if it has not exited
// within 15s), waits for it to exit, and removes its state directory.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.dir)
}

// call sends one request and returns the body when the status is want.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(out))
	}
	return out, nil
}

// callJSON sends in as a JSON body (when non-nil) and decodes the
// answer into out.
func (d *daemon) callJSON(ctx context.Context, method, path string, in, out any, want int) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	resp, err := d.call(ctx, method, path, body, want)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// counters returns the daemon's obs counters from /metrics.
func (d *daemon) counters(ctx context.Context) (map[string]int64, error) {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := d.callJSON(ctx, "GET", "/metrics", nil, &snap, http.StatusOK); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}
