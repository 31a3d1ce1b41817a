//go:build linux

package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"chronos/pkg/client"
)

// serverFlags are stated in the run header: the end-to-end numbers are
// those of chronos-control as shipped, so the benchmark passes nothing
// but the address and the data directory.
const serverFlags = "defaults: SyncEveryCommit, -compact-every 4096, -wal-segment-bytes 4MiB, -watchdog 10s"

// buildBinaries compiles the two programs under test into dir. Build
// time is reported but is not part of setup_s.
func buildBinaries(root, dir string) (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(os.PathSeparator), "./cmd/chronos-control", "./cmd/chronos-agent")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/chronos-control ./cmd/chronos-agent: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// procs owns every child process of the run, so one deferred stopAll
// (and the signal handler in main) leaves nothing behind.
type procs struct {
	mu   sync.Mutex
	live map[*proc]struct{}
}

type proc struct {
	owner *procs
	cmd   *exec.Cmd
	log   *os.File
	url   string
	args  []string
	bin   string
	env   []string
	done  chan struct{}
}

// start launches bin with args; stderr and stdout (the access log) go to
// logPath, never to the benchmark's stdout. The child is killed by the
// kernel if the benchmark dies first.
func (ps *procs) start(bin, logPath, url string, env []string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{owner: ps, cmd: cmd, log: logf, url: url, args: args, bin: bin, env: env, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a killed child carries no information
		close(p.done)
	}()
	ps.mu.Lock()
	if ps.live == nil {
		ps.live = map[*proc]struct{}{}
	}
	ps.live[p] = struct{}{}
	ps.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// signalAndWait sends sig and waits until the child has ended.
func (p *proc) signalAndWait(sig syscall.Signal) {
	p.cmd.Process.Signal(sig) //nolint:errcheck // already-exited is fine
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck
		<-p.done
	}
	p.log.Close()
	p.owner.mu.Lock()
	delete(p.owner.live, p)
	p.owner.mu.Unlock()
}

// kill is kill -9: no chance to flush, the crash the recovery cycles model.
func (p *proc) kill() { p.signalAndWait(syscall.SIGKILL) }

// restart starts the same command line again (same data dir and port).
func (p *proc) restart() (*proc, error) {
	return p.owner.start(p.bin, p.log.Name(), p.url, p.env, p.args...)
}

func (ps *procs) stopAll() {
	ps.mu.Lock()
	all := make([]*proc, 0, len(ps.live))
	for p := range ps.live {
		all = append(all, p)
	}
	ps.mu.Unlock()
	for _, p := range all {
		p.kill()
	}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on the box competes for
// ephemeral loopback ports during a run.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitPing polls /ping until the server answers and returns how long
// that took from the call.
func waitPing(url string, p *proc, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	c := client.NewClient(url, client.WithVersion("v2"), client.WithRetries(1), client.WithRequestTimeout(time.Second))
	for {
		if _, err := c.Ping(); err == nil {
			return time.Since(start), nil
		}
		select {
		case <-p.done:
			return 0, fmt.Errorf("server at %s exited before answering ping (see %s)", url, p.log.Name())
		default:
		}
		if time.Since(start) > timeout {
			return 0, fmt.Errorf("server at %s did not answer ping within %v", url, timeout)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// cpuTime returns the CPU time (user+system) a process has used so far.
// It sums the per-thread on-CPU nanoseconds from schedstat, which
// resolve far below the 10 ms clock tick of /proc/<pid>/stat; where the
// kernel has no schedstat it falls back to utime+stime from stat.
func cpuTime(pid int) (time.Duration, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			ns += n
		}
	}
	if ns > 0 {
		return time.Duration(ns), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const clkTck = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// selfCPU is the benchmark's own CPU time, for loadgen.cpu_ms_per_job.
func selfCPU() time.Duration {
	d, _ := cpuTime(os.Getpid())
	return d
}

// rssPeakMB reads VmHWM, the peak resident set of a process.
func rssPeakMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) > 0 {
				kb, _ := strconv.ParseFloat(fs[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// dirBytes sums the regular files directly inside dir (the store keeps
// its snapshot and WAL segments flat).
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// fsType names the filesystem holding dir, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// fsyncProbe appends 256 B and fsyncs, n times, in dir: what one durable
// commit costs on this disk before any of Chronos's code runs.
func fsyncProbe(dir string, n int) (p50us float64, err error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 256)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(us), nil
}
