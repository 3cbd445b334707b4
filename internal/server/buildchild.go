// Building a pair in a process of its own. The snapshot is the hand-off: the
// server starts its own binary with BuildChildArg, the child builds the pair
// from the KB files, writes the snapshot and exits, and the server maps what
// it wrote. Queries keep the server's processors while a pair builds, the
// build's heap goes back to the OS when the child exits, and a build that
// panics or is killed fails its pair and nothing else.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"minoaner/internal/core"
	"minoaner/internal/kb"
	"minoaner/internal/snapshot"
)

// BuildChildArg is the first argument that makes a binary run BuildChild
// instead of its own main: Options.BuildCommand is {executable, BuildChildArg}.
const BuildChildArg = "build-child"

// buildReport is what a build says about itself beside the substrate, and
// the one line a build child prints on its standard output. It is the only
// record of the build's clocks: the snapshot a child hands over holds the
// pair, not how long its build took.
type buildReport struct {
	LoadMS    float64      `json:"load_ms"`
	BuildMS   float64      `json:"build_ms"`
	PrewarmMS float64      `json:"prewarm_ms"`
	Timings   *PairTimings `json:"timings,omitempty"`
	// Skipped counts the malformed lines left out of E1 and E2.
	Skipped [2]int `json:"skipped"`
}

// defaultBuild is the one way a pair is built from its KB files: load both
// into shared dictionaries, build the substrate, front-load the query state
// and, where the spec names a file, persist the snapshot — a pair that claims
// to have saved its snapshot but didn't would poison later warm starts.
func defaultBuild(ctx context.Context, spec LoadPairRequest) (*core.Substrate, buildReport, error) {
	var rep buildReport
	t0 := time.Now()
	k1, k2, skipped, err := kb.LoadPair(ctx, spec.E1, spec.E2, spec.Format, true)
	if err != nil {
		return nil, rep, err
	}
	rep.LoadMS, rep.Skipped = msOf(time.Since(t0)), skipped
	sub, err := core.BuildSubstrate(ctx, k1, k2, spec.Config.coreConfig())
	if err != nil {
		return nil, rep, err
	}
	tm := sub.Timings()
	rep.BuildMS = msOf(sub.BuildDuration())
	rep.Timings = &PairTimings{StatisticsMS: msOf(tm.Statistics), BlockingMS: msOf(tm.Blocking)}
	t0 = time.Now()
	if err := sub.PrewarmQueries(ctx); err != nil {
		return nil, rep, err
	}
	rep.PrewarmMS = msOf(time.Since(t0))
	if spec.SaveSnapshot != "" {
		if err := snapshot.WriteSubstrateFile(spec.SaveSnapshot, sub); err != nil {
			return nil, rep, fmt.Errorf("save snapshot: %w", err)
		}
	}
	return sub, rep, nil
}

// BuildChild is the body of the build process and returns its exit status.
// It reads one LoadPairRequest as a JSON line from stdin, builds the pair,
// writes the snapshot to the request's save_snapshot and prints a buildReport
// line on stdout; a failure is one line on stderr. The server keeps the
// other end of stdin open for as long as it wants the build, so end of file
// there means the server is gone and the process exits at once — wherever
// the build is, a file open that blocks included.
func BuildChild(stdin io.Reader, stdout, stderr io.Writer) int {
	in := bufio.NewReader(stdin)
	var spec LoadPairRequest
	line, err := in.ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "reading the pair spec:", err)
		return 2
	}
	go func() {
		_, _ = io.Copy(io.Discard, in) // returns at end of file or a broken pipe: both mean nobody is waiting
		os.Exit(3)
	}()
	_, rep, err := defaultBuild(context.Background(), spec)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// buildInChild builds the pair of spec in a child process and maps the
// snapshot it wrote. The child writes into a directory of its own beside the
// destination — one filesystem, so that handing the finished file over is a
// rename — and whatever a killed child leaves there goes with the directory.
// A pair without save_snapshot is mapped from a file under os.TempDir() that
// is unlinked once mapped. Cancelling ctx kills the child; it is reaped
// before this returns in every case.
func (r *Registry) buildInChild(ctx context.Context, spec LoadPairRequest) (*snapshot.Loaded, buildReport, error) {
	var rep buildReport
	save, parent := spec.SaveSnapshot, os.TempDir()
	if save != "" {
		parent = filepath.Dir(save)
	}
	dir, err := os.MkdirTemp(parent, ".minoanerd-build-*")
	if err != nil {
		return nil, rep, fmt.Errorf("creating the build directory: %w", err)
	}
	defer os.RemoveAll(dir)
	spec.SaveSnapshot = filepath.Join(dir, "pair.snap")
	line, err := json.Marshal(spec)
	if err != nil {
		return nil, rep, err
	}

	// The child inherits the environment, GOMAXPROCS included, and runs at
	// the server's priority: under nice 19 a build beside queries took 74%
	// longer. Its output goes to pipes of this process, never to inherited
	// descriptors: whoever drains the server's stdout must see it end when
	// the server exits.
	cmd := exec.CommandContext(ctx, r.buildCommand[0], r.buildCommand[1:]...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	stdin, err := cmd.StdinPipe() // closed by Wait, once the child has exited
	if err != nil {
		return nil, rep, err
	}
	if err := cmd.Start(); err != nil {
		return nil, rep, fmt.Errorf("starting the build process: %w", err)
	}
	_, _ = stdin.Write(append(line, '\n')) // a child that is already gone shows in Wait
	if err := cmd.Wait(); err != nil {
		var exit *exec.ExitError
		switch {
		case ctx.Err() != nil:
			return nil, rep, ctx.Err() // the kill was ours: the pair was deleted or the registry closed
		case !errors.As(err, &exit):
			return nil, rep, fmt.Errorf("build process: %w", err)
		case !exit.Exited():
			return nil, rep, fmt.Errorf("build process killed: %s", exit.ProcessState)
		}
		if why := childFailure(stderr.String()); why != "" {
			return nil, rep, errors.New(why)
		}
		return nil, rep, fmt.Errorf("build process: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, rep, fmt.Errorf("build process: reading its report: %w", err)
	}
	path := spec.SaveSnapshot
	if save != "" {
		if err := os.Rename(path, save); err != nil {
			return nil, rep, fmt.Errorf("save snapshot: %w", err)
		}
		path = save
	}
	loaded, err := snapshot.OpenSubstrate(path)
	return loaded, rep, err
}

// childFailure picks the line of a failed child's stderr that says why: the
// panic or runtime fatal line when there is one, else the last line.
func childFailure(stderr string) string {
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "panic: ") || strings.HasPrefix(l, "fatal error: ") {
			return l
		}
	}
	return lines[len(lines)-1]
}
