package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one process under test, started from a binary and driven only
// through its wire interfaces. The harness never links the daemon's main
// package: what is measured is the program an operator would run.
type proc struct {
	cmd     *exec.Cmd
	started time.Time
	logPath string
	exited  chan struct{}
	waitErr error
}

// procs tracks every live child so that a harness error or signal can kill
// them all; a benchmark must not leave daemons behind.
var procs struct {
	mu   sync.Mutex
	live map[*proc]struct{}
}

// freeAddr picks a loopback TCP address that is free right now. The port is
// released before the child binds it; on a private sandbox the window is
// harmless and the child fails loudly if it loses the race.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startProc launches bin with args, sending its output to logPath.
func startProc(bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	p := &proc{cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = map[*proc]struct{}{}
	}
	procs.live[p] = struct{}{}
	procs.mu.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		procs.mu.Lock()
		delete(procs.live, p)
		procs.mu.Unlock()
		close(p.exited)
	}()
	return p, nil
}

// waitHTTP polls url until it answers 200 and returns how long that took,
// counted from process start. It fails fast when the process exits first.
func (p *proc) waitHTTP(ctx context.Context, url string, timeout time.Duration) (time.Duration, error) {
	client := &http.Client{Timeout: time.Second}
	deadline := p.started.Add(timeout)
	for {
		select {
		case <-p.exited:
			return 0, fmt.Errorf("process exited before %s answered: %v\n%s", url, p.waitErr, p.logTail(20))
		case <-ctx.Done():
			return 0, ctx.Err()
		default:
		}
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(p.started), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s not ready after %s\n%s", url, timeout, p.logTail(20))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads VmHWM — the process's peak resident set — from procfs.
func (p *proc) peakRSSMB() (float64, error) {
	return readVmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

func readVmHWM(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in " + statusPath)
}

// stop signals the process and waits for it to end. SIGTERM exercises the
// daemon's graceful drain; SIGKILL is the crash the WAL exists for.
func (p *proc) stop(sig syscall.Signal, timeout time.Duration) error {
	select {
	case <-p.exited:
		return nil
	default:
	}
	if err := p.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-p.exited:
		return nil
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("process ignored %v for %s; killed", sig, timeout)
	}
}

// logTail returns the last n lines of the process log for error reports.
func (p *proc) logTail(n int) string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return "--- " + p.logPath + " ---\n" + strings.Join(lines, "\n")
}

// killAll ends every process the harness still has running and waits for
// each; it runs on every exit path, error and signal included.
func killAll() {
	procs.mu.Lock()
	live := make([]*proc, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.mu.Unlock()
	for _, p := range live {
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}
