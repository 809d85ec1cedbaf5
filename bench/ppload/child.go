package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	readyTimeout = 60 * time.Second
	drainTimeout = 20 * time.Second
	stderrKeep   = 200 // lines of child stderr kept for failure reports
)

// child is one running ppserve process.
type child struct {
	cmd     *exec.Cmd
	base    string    // http://host:port
	started time.Time // just before exec
	exited  chan struct{}
	waitErr error // valid once exited is closed

	mu    sync.Mutex
	lines []string
}

// live tracks every process group this process started and has not yet
// seen exit, with the signal that stops it, so that a signal or a failure
// path can stop them all: a benchmark that leaks its server would poison
// the next run on the same host.
var live struct {
	sync.Mutex
	groups map[int]syscall.Signal
}

func track(pid int, stopWith syscall.Signal) {
	live.Lock()
	defer live.Unlock()
	if live.groups == nil {
		live.groups = make(map[int]syscall.Signal)
	}
	live.groups[pid] = stopWith
}

func untrack(pid int) {
	live.Lock()
	defer live.Unlock()
	delete(live.groups, pid)
}

func killAllChildren() {
	live.Lock()
	defer live.Unlock()
	for pid, sig := range live.groups {
		_ = syscall.Kill(-pid, sig) // already gone is fine
	}
}

var servingLine = regexp.MustCompile(`serving on (\S+:\d+) `)

// serveBinary locates the ppserve binary the wrapper built next to ppload.
func serveBinary() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(filepath.Dir(self), "ppserve")
	if _, err := os.Stat(bin); err != nil {
		return "", fmt.Errorf("ppserve binary not found beside ppload (run through bench/run.sh, which builds both): %w", err)
	}
	return bin, nil
}

// startChild execs ppserve in its own process group and waits until it
// has logged its listening address. The port is discovered from the log
// line, not chosen here, so parallel runs on one host cannot collide.
func startChild(bin string, args []string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	track(cmd.Process.Pid, syscall.SIGKILL)

	addr := make(chan string, 1)
	go func() {
		// The reader must drain the pipe before Wait, which closes it.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if len(c.lines) == stderrKeep {
				c.lines = c.lines[1:]
			}
			c.lines = append(c.lines, line)
			c.mu.Unlock()
			if m := servingLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		c.waitErr = cmd.Wait()
		untrack(cmd.Process.Pid)
		close(c.exited)
	}()

	select {
	case a := <-addr:
		c.base = "http://" + a
		return c, nil
	case <-c.exited:
		return nil, c.fail("ppserve exited before listening (%v)", c.waitErr)
	case <-time.After(readyTimeout):
		c.killGroup()
		<-c.exited
		return nil, c.fail("ppserve did not report its address within %v", readyTimeout)
	}
}

// fail builds an error that carries the child's recent stderr.
func (c *child) fail(format string, args ...any) error {
	c.mu.Lock()
	tail := strings.Join(c.lines, "\n  ")
	c.mu.Unlock()
	return fmt.Errorf(format+"\n  child stderr:\n  %s", append(args, tail)...)
}

// waitReady polls /readyz until every graph serves.
func (c *child) waitReady(client *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		status, _, err := get(client, c.base+"/readyz", 2*time.Second)
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-c.exited:
			return c.fail("ppserve exited while starting (%v)", c.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			return c.fail("ppserve not ready within %v (last: status %d, err %v)", readyTimeout, status, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// terminate sends SIGTERM and requires a clean drain: exit code 0 within
// drainTimeout. Anything else is a failed run.
func (c *child) terminate() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return c.fail("SIGTERM: %v", err)
	}
	select {
	case <-c.exited:
	case <-time.After(drainTimeout):
		c.killGroup()
		<-c.exited
		return c.fail("ppserve did not drain within %v of SIGTERM", drainTimeout)
	}
	if c.waitErr != nil {
		return c.fail("ppserve exited uncleanly after SIGTERM: %v", c.waitErr)
	}
	return nil
}

// killGroup kills the child's whole process group.
func (c *child) killGroup() {
	if c.cmd.Process != nil {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
}

// stop kills the child if it is still running and waits for it; the
// deferred safety net of every code path that started one.
func (c *child) stop() {
	select {
	case <-c.exited:
		return
	default:
	}
	c.killGroup()
	<-c.exited
}

// clockTick is the kernel's USER_HZ, in which /proc reports CPU times. It
// is 100 on every Linux platform Go supports.
const clockTick = 100

func procFile(pid int, name string) ([]byte, error) {
	if runtime.GOOS != "linux" {
		return nil, fmt.Errorf("ppload reads child CPU and memory from /proc, which needs Linux (running on %s)", runtime.GOOS)
	}
	return os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, name))
}

// cpuSeconds is the child's user+system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	data, err := procFile(c.cmd.Process.Pid, "stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU reads utime+stime (fields 14 and 15) from /proc/<pid>/stat.
// The command name (field 2) may contain spaces, so fields are counted
// from the last ')'.
func parseStatCPU(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc stat: no command field in %q", data)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat: utime %q stime %q", fields[11], fields[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB is the child's resident-set high-water mark.
func (c *child) peakRSSMB() (float64, error) {
	data, err := procFile(c.cmd.Process.Pid, "status")
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(data)
}

func parseStatusHWM(data []byte) (float64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseUint(f[0], 10, 64)
				if err == nil {
					return float64(kb) / 1024, nil
				}
			}
			return 0, fmt.Errorf("/proc status: unreadable VmHWM line %q", line)
		}
	}
	return 0, errors.New("/proc status: no VmHWM line")
}

// get issues one GET with its own deadline and reads the whole body.
func get(client *http.Client, target string, timeout time.Duration) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
