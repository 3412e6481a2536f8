package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemonFlags is the durable production shape serve-steady runs:
// incremental Metis replanning every second 100 ms epoch with 95% of
// the epoch as the tick budget, a write-ahead log, and no -max-batch
// cap, so what bounds a tick is the work it does.
var daemonFlags = []string{
	"-network", "B4",
	"-policy", "metis-incremental",
	"-epoch", "100ms",
	"-tick-budget", "0.95",
	"-replan-every", "2",
	"-scorecard", "4096",
}

// lockedBuffer collects a child's stderr while the benchmark reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`on http://(\S+) policy=`)

// daemon is one metisd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	stderr *lockedBuffer
	base   string
	dir    string
	done   chan struct{}
	err    error // Wait's result, set before done closes
}

// startDaemon starts metisd with its state under dir and waits until
// /healthz answers 200. It returns the daemon and the time from exec
// to the first healthy answer.
func startDaemon(bin, dir string, extra ...string) (*daemon, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-wal-dir", filepath.Join(dir, "wal")}, daemonFlags...)
	args = append(args, extra...)
	d := &daemon{stderr: &lockedBuffer{}, dir: dir, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = d.stderr
	// Should the benchmark die without stopping it, the daemon dies too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start metisd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := t0.Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("metisd exited during start-up: %v\n%s", d.err, d.stderr.String())
		default:
		}
		if d.base == "" {
			if m := listenRE.FindStringSubmatch(d.stderr.String()); m != nil {
				d.base = "http://" + m[1]
			}
		}
		if d.base != "" {
			resp, err := client.Get(d.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(t0), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("metisd not healthy within 20s:\n%s", d.stderr.String())
}

// peakRSSMiB reads the daemon's peak resident set while it runs.
func (d *daemon) peakRSSMiB() (float64, error) {
	return procStatusMiB(strconv.Itoa(d.cmd.Process.Pid), "VmHWM:")
}

// stop sends SIGTERM (metisd drains and exits), kills the process if it
// has not exited within 10 s, and waits for it. It returns the exit
// error of a process that did not exit cleanly.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.exitErr()
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("metisd did not drain within 10s and was killed")
	}
	return d.exitErr()
}

func (d *daemon) exitErr() error {
	if d.err != nil {
		return fmt.Errorf("metisd: %v\n%s", d.err, d.stderr.String())
	}
	return nil
}

// getJSON fetches base+path into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
