package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeScale shrinks every pair to a tenth (YAGO ×0.5: 5,000 × 5,250
// entities): small enough for seconds per run, large enough that the
// accuracy floors still hold with a margin.
const smokeScale = 0.1

// TestMain lets the test binary stand in for the benchmark where the
// workloads start it again as the child that keeps the CPUs awake.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		fmt.Fprintln(os.Stderr, spin())
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// buildBinaries builds the two programs under test from the enclosing
// repository into a temporary directory.
func buildBinaries(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/minoaner", "./cmd/minoanerd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries under test: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload, untraced and traced, on shrunken inputs
// against BENCHMARK.json: the declared workloads are the program's; every
// run reports every metric declared for its mode (runOne fails on a missing
// one and report.set refuses an undeclared one, so names and units are the
// declared ones by construction); exact counts repeat for one seed; a
// damaged input fails the run; nothing is left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads end to end")
	}
	decl, err := readDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	bin := buildBinaries(t)
	t.Chdir(t.TempDir()) // scratch directories go under the working directory
	ctx := context.Background()
	o := options{seed: 7, seconds: time.Second, scale: smokeScale}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i < len(decl.Workloads) && decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, decl.Workloads[i].Name, w.name)
		}
		for mode, declared := range [][]declared{decl.EndToEnd, decl.PerLayer} {
			r, err := runOne(ctx, bin, decl, w, o, mode)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, mode, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%t failed=%d attempted=%d\n%s", w.name, mode, r.Correct, r.Failed, r.Attempted, strings.Join(r.Notes, "\n"))
			}
			for _, m := range declared {
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q has characters outside letters, digits, _ . -", m.Name)
				}
			}
			if mode == 0 {
				continue
			}
			again, err := runOne(ctx, bin, decl, w, o, mode)
			if err != nil {
				t.Fatalf("%s trace %d, second run: %v", w.name, mode, err)
			}
			for _, m := range declared {
				if m.Unit == "count" && r.Metrics[m.Name] != again.Metrics[m.Name] {
					t.Errorf("%s: %s is %v, then %v for the same seed", w.name, m.Name, r.Metrics[m.Name].Value, again.Metrics[m.Name].Value)
				}
			}
		}
	}

	for _, fault := range []string{"e2", "snapshot"} {
		o := o
		o.fault = fault
		if r, err := runOne(ctx, bin, decl, workloads[0], o, 0); err == nil && r.Correct {
			t.Errorf("a truncated %s went unnoticed", fault)
		}
	}

	left, err := filepath.Glob(filepath.Join(".bench_build", "tmp", "*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
	if runtime.GOOS == "linux" {
		assertNothingLeftRunning(t)
	}
}

// assertNothingLeftRunning checks /proc for children of this process and
// for snapshot files still mapped into it.
func assertNothingLeftRunning(t *testing.T) {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // exited meanwhile
		}
		// pid (comm) state ppid ...; comm may hold spaces, so cut after ")".
		_, rest, ok := strings.Cut(string(raw), ") ")
		var state string
		var ppid int
		if !ok {
			continue
		}
		if _, err := fmt.Sscan(rest, &state, &ppid); err == nil && ppid == os.Getpid() {
			t.Errorf("child process still running: %s", raw)
		}
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, ".snap") {
			t.Errorf("snapshot still mapped: %s", line)
		}
	}
}
