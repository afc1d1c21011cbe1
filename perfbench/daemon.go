package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is a gridbcastd child process listening on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	exited  chan struct{}
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches bin with args plus a -listen flag and returns once
// the process has started (not once it is ready: see waitReady).
func startDaemon(bin, logPath string, args []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	// The daemon runs at a lower CPU priority than the load generator, so
	// on a small host the generator's wake-ups preempt the daemon and
	// requests leave on time instead of queueing behind the server they
	// measure (the generator stands in for clients on other machines).
	// run.sh starts the generator at nice -5 where the host allows it, so
	// the daemon, 5 below it, runs at the default priority, level with
	// other work on the host: load from elsewhere takes no more CPU from
	// it than from any other process. Where the host refuses, the
	// generator runs at 0 and the daemon at 5.
	cmd := exec.Command("nice", append([]string{"-n", "5", bin, "-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported by waitReady or stop
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls /healthz until the daemon answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("gridbcastd exited during start-up: %s", d.logTail())
		default:
		}
		resp, err := hc.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gridbcastd not ready after %v: %s", timeout, d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath) // best effort: only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop drains the daemon with SIGTERM, killing it if the drain hangs, and
// returns once the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// procCPU is a process's user plus system CPU time from /proc/<pid>/stat
// (USER_HZ is 100 on Linux, so the resolution is 10 ms).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM is a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostTicks is a reading of the host's CPU counters from /proc/stat, in
// USER_HZ ticks: busy is user, nice and system time over every CPU, steal
// the time the hypervisor gave to other machines, and total every counter
// up to steal. Interrupt time is left out of busy: on loopback most of it
// is this benchmark's own traffic, charged to no process.
type hostTicks struct{ busy, steal, total int64 }

func readHostTicks() (hostTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, errors.New("malformed /proc/stat")
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostTicks{}, errors.New("malformed /proc/stat")
		}
	}
	var h hostTicks
	for _, x := range v {
		h.total += x
	}
	h.busy = v[0] + v[1] + v[2]
	h.steal = v[7]
	return h, nil
}

// contention measures how much of the host's CPU went neither to this
// process nor to the daemon over an interval: to other processes on the
// host, or stolen by the hypervisor.
type contention struct {
	pid   int // the daemon
	host  hostTicks
	procs time.Duration
}

func startContention(pid int) (*contention, error) {
	c := &contention{pid: pid}
	var err error
	if c.host, err = readHostTicks(); err != nil {
		return nil, err
	}
	c.procs, err = c.ours()
	return c, err
}

func (c *contention) ours() (time.Duration, error) {
	self, err := procCPU(os.Getpid())
	if err != nil {
		return 0, err
	}
	d, err := procCPU(c.pid)
	return self + d, err
}

// share is the share of the host's CPU time since startContention that
// went to other processes or to steal.
func (c *contention) share() (float64, error) {
	h, err := readHostTicks()
	if err != nil {
		return 0, err
	}
	procs, err := c.ours()
	if err != nil {
		return 0, err
	}
	total := h.total - c.host.total
	if total <= 0 {
		return 0, nil
	}
	ours := int64((procs - c.procs) / (10 * time.Millisecond))
	foreign := h.busy - c.host.busy - ours + h.steal - c.host.steal
	return float64(max(foreign, 0)) / float64(total), nil
}
