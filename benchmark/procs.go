package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usage is what one finished child cost: CPU of the child and every
// descendant it waited for (wait4 reports both), and the largest
// resident set any process of that tree reached.
type usage struct {
	cpu    time.Duration
	rssMiB float64
}

func (u *usage) add(o usage) {
	u.cpu += o.cpu
	if o.rssMiB > u.rssMiB {
		u.rssMiB = o.rssMiB
	}
}

// child is one started process in its own process group, so that a
// supervisor's shard subprocesses die with it and strays can be found.
type child struct {
	cmd    *exec.Cmd
	stderr *lockedBuffer
	rss    *rssSampler
}

// start launches a child in a fresh process group. Cancelling ctx kills
// the whole group.
func start(ctx context.Context, bin string, args ...string) (*child, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	c := &child{cmd: cmd, stderr: &lockedBuffer{}}
	cmd.Stderr = c.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	c.rss = sampleRSS(cmd.Process.Pid)
	return c, nil
}

// wait reaps the child and reports its usage. A non-zero exit is an
// error carrying the tail of the child's stderr.
func (c *child) wait() (usage, error) {
	err := c.cmd.Wait()
	u := usage{rssMiB: c.rss.finish()}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if err != nil {
		return u, fmt.Errorf("%s: %w: %s", filepath.Base(c.cmd.Path), err, c.stderr.tail(400))
	}
	return u, nil
}

// stray reports whether any process of the child's group is still alive
// after the child itself was reaped, and kills what it finds.
func (c *child) stray() bool {
	pgid := c.cmd.Process.Pid
	if syscall.Kill(-pgid, 0) != nil {
		return false // ESRCH: the group is empty
	}
	_ = syscall.Kill(-pgid, syscall.SIGKILL) // best effort; the group may have emptied meanwhile
	return true
}

// waitWithin reaps a child that is expected to exit on its own, killing
// its group if it has not done so within grace.
func (c *child) waitWithin(grace time.Duration) (usage, error) {
	timer := time.AfterFunc(grace, func() { _ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) })
	defer timer.Stop()
	return c.wait()
}

// stop asks a daemon to drain (SIGTERM) and reaps it.
func (c *child) stop(grace time.Duration) (usage, error) {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an already-exited daemon is reported by the wait
	return c.waitWithin(grace)
}

// run starts a child and waits for it.
func run(ctx context.Context, bin string, args ...string) (usage, *child, error) {
	c, err := start(ctx, bin, args...)
	if err != nil {
		return usage{}, nil, err
	}
	u, err := c.wait()
	return u, c, err
}

// rssSampler follows the peak resident set of a process tree by polling
// VmHWM in /proc. wait4's ru_maxrss cannot be used: a child started by
// vfork+exec inherits the parent's own high-water mark at exec, so it
// reads at least as large as this harness ever was.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	kib  int64
}

const rssPollInterval = 10 * time.Millisecond

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssPollInterval)
		defer tick.Stop()
		for {
			s.kib = max(s.kib, treeHWM(pid))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak it saw, in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return float64(s.kib) / 1024
}

// treeHWM is the largest VmHWM (KiB) among pid and its descendants.
func treeHWM(pid int) int64 {
	dir := fmt.Sprintf("/proc/%d", pid)
	var kib int64
	if status, err := os.ReadFile(dir + "/status"); err == nil {
		if i := strings.Index(string(status), "VmHWM:"); i >= 0 {
			_, _ = fmt.Sscanf(string(status[i:]), "VmHWM: %d", &kib) // a vanished or kernel task has none
		}
	}
	tasks, _ := os.ReadDir(dir + "/task") // gone already: nothing to descend into
	for _, t := range tasks {
		kids, _ := os.ReadFile(dir + "/task/" + t.Name() + "/children")
		for _, f := range strings.Fields(string(kids)) {
			if kid, err := strconv.Atoi(f); err == nil {
				kib = max(kib, treeHWM(kid))
			}
		}
	}
	return kib
}

// lockedBuffer collects a child's stderr while the harness polls it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

func (b *lockedBuffer) tail(n int) string {
	s := strings.TrimSpace(b.String())
	if len(s) > n {
		s = "…" + s[len(s)-n:]
	}
	return s
}

var listenRE = regexp.MustCompile(`listening on http://([^/\s]+)/`)

// daemon is a running ctsand and the base URL it answered /healthz on.
type daemon struct {
	*child
	base string
}

// startDaemon launches ctsand on an ephemeral loopback port, parses the
// bound address from its "listening on http://" log line, and returns
// once /healthz answers.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	c, err := start(ctx, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-max-active", "1")
	if err != nil {
		return nil, err
	}
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if m := listenRE.FindStringSubmatch(c.stderr.String()); m != nil {
			base := "http://" + m[1]
			res, err := probe.Get(base + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, res.Body) // body content is irrelevant to liveness
				res.Body.Close()
				if res.StatusCode == http.StatusOK {
					return &daemon{child: c, base: base}, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	_, _ = c.wait() // reaping only; the failure reported is the missing address
	return nil, fmt.Errorf("ctsand never answered /healthz: %s", c.stderr.tail(400))
}

// binaries are the two real programs every workload drives.
type binaries struct {
	ctsan, ctsand string
}

// buildBinaries compiles cmd/ctsan and cmd/ctsand from the checkout's
// source into dir.
func buildBinaries(ctx context.Context, dir string) (binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/ctsan", "./cmd/ctsand")
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build ./cmd/ctsan ./cmd/ctsand: %w: %s", err, strings.TrimSpace(string(out)))
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return binaries{}, err
	}
	return binaries{ctsan: filepath.Join(abs, "ctsan"), ctsand: filepath.Join(abs, "ctsand")}, nil
}

// workRoot creates this invocation's private directory under the
// checkout's .bench_build; everything the benchmark writes (binaries,
// specs, checkpoint stores, outputs) lives below it and goes with it.
func workRoot() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "ctsan-bench-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

var errInterrupted = errors.New("interrupted")
