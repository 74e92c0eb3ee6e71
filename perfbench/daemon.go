package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one stmkvd process started from the binary built from the
// tree, listening on ephemeral loopback ports.
type daemon struct {
	cmd       *exec.Cmd
	httpAddr  string
	protoAddr string
	exited    chan struct{}
	waitErr   error

	mu  sync.Mutex
	log []string // the last lines of its standard error
}

const daemonLogLines = 40

// startDaemon launches bin with args and returns once /readyz answers,
// with its threads allowed onto cpus (nil: as inherited).
func startDaemon(bin string, args []string, cpus []int, hc *http.Client) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-proto-addr", "127.0.0.1:0"}, args...)
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	// Should the benchmark die, the kernel stops the daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start stmkvd: %w", err)
	}
	addrs := make(chan [2]string, 1)
	go d.readLog(stderr, addrs)
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.After(30 * time.Second)
	select {
	case a := <-addrs:
		d.httpAddr, d.protoAddr = a[0], a[1]
	case <-d.exited:
		return nil, fmt.Errorf("stmkvd exited before listening: %v\n%s", d.waitErr, d.logTail())
	case <-deadline:
		d.stop()
		return nil, errors.New("stmkvd did not report its addresses within 30s")
	}
	for {
		resp, err := hc.Get("http://" + d.httpAddr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if cpus == nil {
					return d, nil
				}
				if err := pin(d.cmd.Process.Pid, cpus); err != nil {
					d.stop()
					return nil, err
				}
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("stmkvd exited before ready: %v\n%s", d.waitErr, d.logTail())
		case <-deadline:
			d.stop()
			return nil, errors.New("stmkvd not ready within 30s")
		case <-time.After(time.Millisecond):
		}
	}
}

// readLog keeps the log tail and reports the listening addresses.
func (d *daemon) readLog(r io.Reader, addrs chan<- [2]string) {
	sc := bufio.NewScanner(r)
	var httpA, protoA string
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.log = append(d.log, line)
		if len(d.log) > daemonLogLines {
			d.log = d.log[1:]
		}
		d.mu.Unlock()
		if a, ok := strings.CutPrefix(line, "stmkvd: http listening on "); ok {
			httpA = a
		}
		if a, ok := strings.CutPrefix(line, "stmkvd: proto listening on "); ok {
			protoA = a
		}
		if !sent && httpA != "" && protoA != "" {
			addrs <- [2]string{httpA, protoA}
			sent = true
		}
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// peakRSSMB reads the process's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// vmHWM reads a process's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the daemon to shut down and waits for it; after 10s it is
// killed.
func (d *daemon) stop() {
	if !d.alive() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}
