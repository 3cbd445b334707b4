package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// env is what every workload runs in: where the binaries under test are,
// a scratch directory inside the checkout, and the machine's size.
type env struct {
	bin   string // directory holding minoaner and minoanerd
	dir   string // scratch directory of this run, removed at exit
	nproc int
}

// batchProcs is the GOMAXPROCS of a CLI child: all cores up to four, the
// size of machine the CLI defaults (-workers 0) are judged on.
func (e *env) batchProcs() int { return min(e.nproc, 4) }

// serverProcs is the GOMAXPROCS of the server child: one core is left to
// the load generator so that it does not measure itself.
func (e *env) serverProcs() int { return max(1, e.nproc-1) }

// usage is what a finished child cost.
type usage struct {
	wall  time.Duration
	cpu   time.Duration // user + system
	rssMB float64       // ru_maxrss
}

func usageOf(cmd *exec.Cmd, wall time.Duration) usage {
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{wall: wall, cpu: cpu, rssMB: float64(ru.Maxrss) / 1024} // Linux reports KiB
}

// command prepares a child with the given GOMAXPROCS that dies with ctx and,
// on Linux, with this process.
func (e *env) command(ctx context.Context, procs int, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.WaitDelay = 5 * time.Second
	dieWithParent(cmd)
	return cmd
}

// spinArg is the argument with which this program runs as the child of
// keepAwake.
const spinArg = "-spin"

// keepAwake starts this program again as a child that keeps every CPU from
// halting (see spin) while latencies of well under a millisecond are
// measured, and returns what stops it. Where the child cannot do its work it
// exits at once and the measurement goes on without it; a note in r says so.
func (e *env) keepAwake(ctx context.Context, r *report) (stop func()) {
	var stderr bytes.Buffer
	self, err := os.Executable()
	if err == nil {
		cmd := exec.CommandContext(ctx, self, spinArg)
		cmd.Stderr = &stderr
		dieWithParent(cmd)
		if err = cmd.Start(); err == nil {
			return func() {
				cmd.Process.Kill()
				cmd.Wait()
				if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() { // else it was still spinning
					r.note("the CPUs were not kept from halting: %s", bytes.TrimSpace(stderr.Bytes()))
				}
			}
		}
	}
	r.note("the CPUs were not kept from halting: %v", err)
	return func() {}
}

// runCLI runs `minoaner args...` to completion with its standard output in
// the file out, the way a user redirects the matches TSV.
func (e *env) runCLI(ctx context.Context, out string, args ...string) (usage, error) {
	f, err := os.Create(out)
	if err != nil {
		return usage{}, err
	}
	defer f.Close()
	var stderr bytes.Buffer
	cmd := e.command(ctx, e.batchProcs(), "minoaner", args...)
	cmd.Stdout, cmd.Stderr = f, &stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return usage{}, fmt.Errorf("minoaner %s: %w: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return usageOf(cmd, wall), nil
}

// serverChild is a running minoanerd.
type serverChild struct {
	cmd     *exec.Cmd
	started time.Time
	base    string      // http://host:port
	lines   chan string // standard output, line by line; closed at EOF
	stderr  bytes.Buffer
}

// startServer execs `minoanerd -addr 127.0.0.1:0 -quiet args...` and returns
// once it has printed the address it listens on.
func (e *env) startServer(ctx context.Context, args ...string) (*serverChild, error) {
	s := &serverChild{lines: make(chan string, 16)} // start-up prints a handful of lines
	s.cmd = e.command(ctx, e.serverProcs(), "minoanerd", append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	s.cmd.Stderr = &s.stderr
	// SIGTERM drains; the default (SIGKILL) would lose the exit status that
	// carries the child's resource usage.
	s.cmd.Cancel = func() error { return s.cmd.Process.Signal(syscall.SIGTERM) }
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			s.lines <- sc.Text()
		}
	}()
	line, err := s.waitLine(ctx, "listening on ")
	if err != nil {
		if _, serr := s.stop(); serr != nil {
			err = fmt.Errorf("%w: %v", err, serr)
		}
		return nil, err
	}
	s.base = "http://" + line[strings.LastIndex(line, " ")+1:]
	return s, nil
}

// waitLine consumes the child's output up to the first line containing
// marker and returns that line.
func (s *serverChild) waitLine(ctx context.Context, marker string) (string, error) {
	for {
		select {
		case line, ok := <-s.lines:
			if !ok {
				return "", fmt.Errorf("minoanerd exited before printing %q", marker)
			}
			if strings.Contains(line, marker) {
				return line, nil
			}
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// stop asks the server to drain, waits for it to exit and reports what its
// whole life cost.
func (s *serverChild) stop() (usage, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return usage{}, err
	}
	for range s.lines { // drain, so the child never blocks on a full pipe
	}
	err := s.cmd.Wait()
	if s.cmd.ProcessState == nil {
		return usage{}, err
	}
	u := usageOf(s.cmd, time.Since(s.started))
	// minoanerd installs its SIGTERM handler only once its preloaded pairs
	// are ready; a stop that lands just before dies of the signal, which is
	// as clean an end as a drain with nothing in flight.
	if ws, ok := s.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return u, nil
	}
	if err != nil {
		return u, fmt.Errorf("minoanerd: %w: %s", err, bytes.TrimSpace(s.stderr.Bytes()))
	}
	return u, nil
}

// newScratch creates this run's scratch directory under root/.bench_build
// and removes those of earlier runs that were killed before they could.
func newScratch(root string) (string, error) {
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	old, err := os.ReadDir(tmp)
	if err != nil {
		return "", err
	}
	for _, d := range old {
		var pid int
		if _, err := fmt.Sscanf(d.Name(), "run-%d-", &pid); err != nil {
			continue
		}
		if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
			os.RemoveAll(filepath.Join(tmp, d.Name()))
		}
	}
	return os.MkdirTemp(tmp, fmt.Sprintf("run-%d-", os.Getpid()))
}
