package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one sosd or sosfront process started by the benchmark.
type daemon struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port, parsed from the "listening on" line
	log  *lineLog
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// lineLog tees a daemon's stderr to a file and reports the address of
// its first "listening on ADDR" line.
type lineLog struct {
	f     *os.File
	mu    sync.Mutex
	buf   []byte
	addr  chan string
	found bool
}

func (l *lineLog) Write(p []byte) (int, error) {
	n, err := l.f.Write(p)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.found {
		return n, err
	}
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if _, after, ok := strings.Cut(line, "listening on "); ok && len(strings.Fields(after)) > 0 {
			l.found = true
			l.addr <- strings.Fields(after)[0]
			l.buf = nil
			break
		}
	}
	return n, err
}

// startDaemon runs bin with args, waits for its listening address and
// then for GET /readyz to answer 200.
func startDaemon(ctx context.Context, name, bin, logPath string, args ...string) (*daemon, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, log: &lineLog{f: f, addr: make(chan string, 1)}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = d.log
	// A benchmark that dies must not leave its daemons behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		f.Close()
		close(d.done)
	}()
	select {
	case addr := <-d.log.addr:
		d.base = "http://" + addr
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening: %v (log %s)", name, d.err, logPath)
	case <-time.After(15 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s printed no listening address within 15s (log %s)", name, logPath)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	if err := d.awaitReady(ctx, 15*time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitReady(ctx context.Context, within time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before ready: %v", d.name, d.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready within %v", d.name, within)
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(d.cmd.Process.Pid)
}

// vmHWM reads a process's peak resident set size, in MiB, from
// /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest) // "1234 kB"
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within
// the drain budget. A daemon that does not exit is killed and reported.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return fmt.Errorf("%s exited before it was stopped: %v", d.name, d.err)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", d.name, err)
	}
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("%s did not drain cleanly: %v", d.name, d.err)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("%s still running 20s after SIGTERM; killed", d.name)
	}
}

// kill ends the process if it is still running and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Kill() // it may exit on its own meanwhile
		<-d.done
	}
}
