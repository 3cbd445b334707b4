//go:build unix

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/snapshot"
)

// childOptions makes the server build its pairs in children that are this
// test binary (see TestMain), optionally of a misbehaving kind.
func childOptions(t *testing.T, how ...string) Options {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	o := quietOptions()
	o.BuildCommand = append([]string{self, BuildChildArg}, how...)
	return o
}

// restaurantFiles writes a generated Restaurant pair as N-Triples and
// returns the two paths and the URIs of a few E1 entities that have a match.
func restaurantFiles(t *testing.T) (e1, e2 string, uris []string) {
	t.Helper()
	d, err := datagen.Generate(datagen.Restaurant())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e1, e2 = filepath.Join(dir, "e1.nt"), filepath.Join(dir, "e2.nt")
	for path, k := range map[string]*kb.KB{e1: d.K1, e2: d.K2} {
		var buf bytes.Buffer
		if err := kb.WriteNTriples(&buf, k); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range d.GT.Pairs()[:5] {
		uris = append(uris, d.K1.URI(m.E1))
	}
	return e1, e2, uris
}

// blockedSpec is the load body of a pair whose build cannot get past opening
// E1: the path is a FIFO nobody writes to. It holds a real build child still
// at a known point for as long as a test needs.
func blockedSpec(t *testing.T, id string) string {
	t.Helper()
	fifo := filepath.Join(t.TempDir(), "e1.nt")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"id":%q,"e1":%q,"e2":"e2.nt"}`, id, fifo)
}

// children lists the child processes of this one, zombies included, by pid
// with their arguments (none for a zombie).
func children(t *testing.T) map[int][]string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil || len(stats) == 0 {
		t.Skip("no /proc to find child processes in")
	}
	out := make(map[int][]string)
	for _, path := range stats {
		stat, err := os.ReadFile(path)
		if err != nil {
			continue // gone since the glob
		}
		// pid (comm) state ppid ...; comm may itself hold spaces and brackets.
		f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(f) < 2 || f[1] != strconv.Itoa(os.Getpid()) {
			continue
		}
		pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
		cmdline, _ := os.ReadFile(filepath.Join(filepath.Dir(path), "cmdline"))
		out[pid] = strings.Split(strings.TrimSuffix(string(cmdline), "\x00"), "\x00")
	}
	return out
}

// awaitBuildChild waits for exactly one build child to be running and
// returns its pid.
func awaitBuildChild(t *testing.T) int {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var pids []int
		for pid, argv := range children(t) {
			if len(argv) > 1 && argv[1] == BuildChildArg {
				pids = append(pids, pid)
			}
		}
		switch len(pids) {
		case 0:
		case 1:
			return pids[0]
		default:
			t.Fatalf("%d build children %v for one pair", len(pids), pids)
		}
	}
	t.Fatal("no build child appeared")
	return 0
}

// buildDirs lists the build directories under tmp.
func buildDirs(t *testing.T, tmp string) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(tmp, ".minoanerd-build-*"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// checkNothingLeft asserts that no child process, reaped or not, and no build
// directory under tmp is left.
func checkNothingLeft(t *testing.T, tmp string) {
	t.Helper()
	if left := children(t); len(left) != 0 {
		t.Errorf("child processes left behind: %v", left)
	}
	if left := buildDirs(t, tmp); len(left) != 0 {
		t.Errorf("build directories left behind: %v", left)
	}
}

// privateTmp points os.TempDir() at a directory of this test.
func privateTmp(t *testing.T) string {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	return tmp
}

func awaitPair(t *testing.T, s *Server, id string) PairInfo {
	t.Helper()
	p, ok := s.reg.Get(id)
	if !ok {
		t.Fatalf("pair %s is not registered", id)
	}
	<-p.Done()
	return s.reg.Info(p)
}

// TestChildBuildEqualsInProcessBuild loads one pair through a build child
// and through the in-process build: same candidates byte for byte, same
// matches, the same snapshot file byte for byte, and the build's clocks
// reported both ways. A pair built without save_snapshot lives on
// an unlinked file whose mapping goes away with the pair.
func TestChildBuildEqualsInProcessBuild(t *testing.T) {
	tmp := privateTmp(t)
	e1, e2, uris := restaurantFiles(t)
	dir := t.TempDir()

	type answers struct {
		candidates [][]byte
		matches    []ResolveMatch
		snapshot   []byte
	}
	ask := func(o Options, id string) answers {
		s := New(o)
		defer s.reg.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		snap := filepath.Join(dir, id+".snap")
		body := fmt.Sprintf(`{"id":%q,"e1":%q,"e2":%q,"save_snapshot":%q}`, id, e1, e2, snap)
		if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", body, nil); status != http.StatusAccepted {
			t.Fatalf("load %s = %d", id, status)
		}
		info := awaitPair(t, s, id)
		if info.Status != StatusReady || info.LoadMS <= 0 || info.BuildMS <= 0 || info.PrewarmMS <= 0 || info.Timings == nil || info.E1Size == 0 {
			t.Fatalf("pair %s = %+v, want ready with all its timings", id, info)
		}
		var a answers
		for _, uri := range uris {
			var q struct {
				Candidates json.RawMessage `json:"candidates"`
			}
			if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/"+id+"/query", fmt.Sprintf(`{"uri":%q}`, uri), &q); status != 200 {
				t.Fatalf("query %s on %s = %d", uri, id, status)
			}
			a.candidates = append(a.candidates, q.Candidates)
		}
		var r ResolveResponse
		if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/"+id+"/resolve", `{}`, &r); status != 200 || r.MatchCount == 0 {
			t.Fatalf("resolve on %s = %d, %d matches", id, status, r.MatchCount)
		}
		a.matches = r.Matches
		var err error
		if a.snapshot, err = os.ReadFile(snap); err != nil {
			t.Fatal(err)
		}
		return a
	}
	child, inProcess := ask(childOptions(t), "child"), ask(quietOptions(), "inproc")
	for i := range uris {
		if !bytes.Equal(child.candidates[i], inProcess.candidates[i]) {
			t.Errorf("candidates of %s differ:\n--- child ---\n%s\n--- in-process ---\n%s", uris[i], child.candidates[i], inProcess.candidates[i])
		}
	}
	if !reflect.DeepEqual(child.matches, inProcess.matches) {
		t.Errorf("the child-built pair resolves to %d matches, the in-process one to %d, or to other ones", len(child.matches), len(inProcess.matches))
	}
	if !bytes.Equal(child.snapshot, inProcess.snapshot) {
		t.Errorf("save_snapshot wrote other bytes through the child (%d) than in-process (%d)", len(child.snapshot), len(inProcess.snapshot))
	}
	checkNothingLeft(t, tmp)
	if left, _ := filepath.Glob(filepath.Join(dir, ".*")); len(left) != 0 {
		t.Errorf("left beside the saved snapshots: %v", left)
	}

	// Without save_snapshot: a temporary file, unlinked as soon as it is
	// mapped, and unmapped when the pair is deleted.
	s := New(childOptions(t))
	defer s.reg.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	baseline := mappingsOf(t, tmp)
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", fmt.Sprintf(`{"id":"tmp","e1":%q,"e2":%q}`, e1, e2), nil); status != http.StatusAccepted {
		t.Fatalf("load = %d", status)
	}
	if info := awaitPair(t, s, "tmp"); info.Status != StatusReady {
		t.Fatalf("pair = %+v", info)
	}
	checkNothingLeft(t, tmp)
	mapped := mappingsOf(t, tmp)
	var q QueryResponse
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/tmp/query", fmt.Sprintf(`{"uri":%q}`, uris[0]), &q); status != 200 || len(q.Candidates) == 0 {
		t.Fatalf("query on the unlinked snapshot = %d %+v", status, q)
	}
	if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/pairs/tmp", "", nil); status != http.StatusNoContent {
		t.Fatalf("delete = %d", status)
	}
	if after := mappingsOf(t, tmp); after != baseline || mapped == baseline {
		t.Errorf("mappings under %s: %d before the build, %d while the pair was loaded, %d after its delete; want the first and last equal and the middle above them (unless the platform reads instead of mapping)", tmp, baseline, mapped, after)
	}
}

// TestDeleteAndCloseKillBuildChild starts a build that cannot finish under
// the 8-client hammer, then deletes the pair — and, the second time round,
// closes the registry: one build, one child, and afterwards no process and no
// temporary file.
func TestDeleteAndCloseKillBuildChild(t *testing.T) {
	tmp := privateTmp(t)
	for _, stop := range []string{"delete", "close"} {
		t.Run(stop, func(t *testing.T) {
			s := New(childOptions(t))
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			spec := blockedSpec(t, "stuck")
			var wg sync.WaitGroup
			for range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", spec, nil); status != http.StatusAccepted && status != http.StatusOK {
						t.Errorf("load = %d", status)
					}
				}()
			}
			wg.Wait()
			awaitBuildChild(t)
			if dirs := buildDirs(t, tmp); len(dirs) != 1 {
				t.Errorf("build directories %v while one pair builds, want 1", dirs)
			}
			p, _ := s.reg.Get("stuck")
			if stop == "delete" {
				if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/pairs/stuck", "", nil); status != http.StatusNoContent {
					t.Fatalf("delete = %d", status)
				}
				<-p.Done()
			} else {
				s.reg.Close() // returns once the build goroutine has reaped the child
				if info := s.reg.Info(p); info.Status != StatusFailed || !strings.Contains(info.Error, "context canceled") {
					t.Errorf("pair after Close = %+v, want failed by cancellation", info)
				}
			}
			if got := s.reg.Builds(); got != 1 {
				t.Errorf("Builds() = %d, want 1", got)
			}
			checkNothingLeft(t, tmp)
		})
	}
}

// TestKilledBuildChildFailsOnlyItsPair sends SIGKILL to a build child, as
// the kernel's OOM killer would.
func TestKilledBuildChildFailsOnlyItsPair(t *testing.T) {
	tmp := privateTmp(t)
	s := New(childOptions(t))
	if _, err := s.reg.AddSubstrate("fig1", LoadPairRequest{E1: "mem:wd", E2: "mem:dbp"}, figure1Substrate(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", blockedSpec(t, "doomed"), nil); status != http.StatusAccepted {
		t.Fatalf("load = %d", status)
	}
	if err := syscall.Kill(awaitBuildChild(t), syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if info := awaitPair(t, s, "doomed"); info.Status != StatusFailed || info.Error != "build process killed: signal: killed" {
		t.Errorf("pair of the killed child = %+v", info)
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/doomed/query", `{"uri":"x"}`); status != 500 || code != CodePairFailed {
		t.Errorf("query on it = %d %q, want 500 %q", status, code, CodePairFailed)
	}
	var q QueryResponse
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", `{"uri":"w:Restaurant1"}`, &q); status != 200 || len(q.Candidates) == 0 {
		t.Errorf("query on the other pair = %d %+v", status, q)
	}
	checkNothingLeft(t, tmp)
}

// TestBuildChildFailures maps the ways a child ends badly onto the pair: an
// input error reads as it does from the in-process build, a panic is named,
// and a child that reports success over a file that is no snapshot gives the
// snapshot package's typed error.
func TestBuildChildFailures(t *testing.T) {
	tmp := privateTmp(t)
	_, e2, _ := restaurantFiles(t)
	missing := LoadPairRequest{ID: "p", E1: filepath.Join(t.TempDir(), "no-such.nt"), E2: e2}
	fail := func(o Options, spec LoadPairRequest) error {
		t.Helper()
		s := New(o)
		defer s.reg.Close()
		p, _, err := s.reg.Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-p.Done()
		if p.err == nil {
			t.Fatalf("pair %+v built", spec)
		}
		return p.err
	}
	inProcess, child := fail(quietOptions(), missing), fail(childOptions(t), missing)
	if child.Error() != inProcess.Error() {
		t.Errorf("a missing e1 reads %q from the child and %q in-process", child, inProcess)
	}
	if err := fail(childOptions(t, "panic"), missing); err.Error() != "panic: the build went wrong" {
		t.Errorf("panicking child: %q", err)
	}
	if err := fail(childOptions(t, "garbage"), missing); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Errorf("child that wrote garbage: %q, want %q", err, snapshot.ErrBadMagic)
	}
	checkNothingLeft(t, tmp)
}

// TestBuildChildExitsWhenStdinCloses runs the child by hand, holds it at the
// FIFO and closes its stdin, as the kernel does when the server dies.
func TestBuildChildExitsWhenStdinCloses(t *testing.T) {
	var spec LoadPairRequest
	if err := json.Unmarshal([]byte(blockedSpec(t, "orphan")), &spec); err != nil {
		t.Fatal(err)
	}
	spec.Format, spec.SaveSnapshot = "nt", filepath.Join(t.TempDir(), "pair.snap")
	line, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(childOptions(t).BuildCommand[0], BuildChildArg)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := stdin.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // into the build; the exit must come at any point, so no exact one is needed
	if err := stdin.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 3 {
			t.Errorf("child ended with %v, want exit status 3", err)
		}
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("the child outlived its stdin")
	}
	if _, err := os.Stat(spec.SaveSnapshot); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the child wrote its destination file (stat: %v)", err)
	}
}
