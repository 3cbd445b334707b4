package minoaner_test

// The serve-smoke harness: an end-to-end exercise of the real minoanerd
// binary over real HTTP — generate a dataset, build both binaries, serve,
// load a pair, query it in both request formats, and byte-compare the
// server's candidate rows against `cmd/minoaner -query -json`, proving the
// two front-ends share one wire schema. Then load a second pair from a
// substrate snapshot written by the CLI, assert its candidates match the
// built pair byte for byte and that its readiness wall-clock (open +
// prewarm) beats the full rebuild path. Then build a larger pair from
// N-Triples and, while its build child runs, require 200 queries on the first
// pair to stay fast. Finally SIGTERM the server and assert a clean drain.
//
// The test spawns the go toolchain and a server process, so it only runs
// when MINOANER_SERVE_SMOKE=1 (the `make serve-smoke` entry point; CI sets
// it in a dedicated step) — `go test ./...` stays fast and hermetic.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"minoaner"
)

func TestServeSmoke(t *testing.T) {
	if os.Getenv("MINOANER_SERVE_SMOKE") == "" {
		t.Skip("set MINOANER_SERVE_SMOKE=1 (or run `make serve-smoke`) to exercise the minoanerd binary")
	}
	tmp := t.TempDir()

	// A small generated benchmark, serialized the way a deployment would
	// hand datasets to the server.
	d, err := minoaner.GenerateBenchmark(minoaner.ScaleProfile(minoaner.RestaurantProfile(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	e1Path := filepath.Join(tmp, "e1.nt")
	e2Path := filepath.Join(tmp, "e2.nt")
	writeKB(t, e1Path, d.K1)
	writeKB(t, e2Path, d.K2)

	serverBin := buildBinary(t, tmp, "minoanerd", "./cmd/minoanerd")
	cliBin := buildBinary(t, tmp, "minoaner", "./cmd/minoaner")

	// Start the server on an ephemeral port and discover it from the listen
	// line on stdout.
	srv := exec.Command(serverBin, "-addr", "127.0.0.1:0", "-quiet")
	// One processor: where a build inside the server would starve queries.
	srv.Env = append(os.Environ(), "GOMAXPROCS=1")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill() //nolint:errcheck // last-resort cleanup; the test SIGTERMs first

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("minoanerd printed no listen line: %v", sc.Err())
	}
	listen := sc.Text()
	const prefix = "minoanerd: listening on "
	if !strings.HasPrefix(listen, prefix) {
		t.Fatalf("unexpected first stdout line %q", listen)
	}
	base := "http://" + strings.TrimPrefix(listen, prefix)
	var tail bytes.Buffer
	drained := make(chan struct{})
	go func() { // keep reading stdout so the drain messages arrive
		defer close(drained)
		for sc.Scan() {
			fmt.Fprintln(&tail, sc.Text())
		}
	}()

	// Load the pair and poll the build status until ready.
	loadBody := fmt.Sprintf(`{"id":"smoke","e1":%q,"e2":%q}`, e1Path, e2Path)
	resp := httpJSON(t, http.MethodPost, base+"/v1/pairs", loadBody)
	if resp.status != http.StatusAccepted {
		t.Fatalf("load pair = %d: %s", resp.status, resp.body)
	}
	awaitReady(t, base, "smoke")

	// Format 1 — replay: an E1 URI with a known true match (a non-GT entity
	// can legitimately rank zero candidates), server vs CLI.
	gtPairs := d.GT.Pairs()
	if len(gtPairs) == 0 {
		t.Fatal("generated benchmark has no ground-truth pairs")
	}
	probeID := gtPairs[0].E1
	replayURI := d.K1.Entity(probeID).URI
	serverReplay := queryCandidates(t, base, "smoke", fmt.Sprintf(`{"uri":%q}`, replayURI))
	cliReplay := runCLI(t, cliBin, e1Path, e2Path, replayURI, "")
	if !bytes.Equal(serverReplay, cliReplay) {
		t.Errorf("replay candidates differ between server and CLI:\n--- server ---\n%s\n--- cli ---\n%s", serverReplay, cliReplay)
	}
	if !bytes.Contains(serverReplay, []byte(`"uri"`)) {
		t.Errorf("replay query returned no candidates: %s", serverReplay)
	}

	// Format 2 — a new entity described by explicit statements. The CLI
	// takes them as predicate<TAB>object lines on stdin, the server as an
	// objects array; both demote non-E1 objects to literal values, so the
	// same statements must produce byte-identical candidate rows.
	probe := minoaner.QueryFromEntity(d.K1, probeID)
	var stdin strings.Builder
	type obj struct {
		Predicate string `json:"predicate"`
		Object    string `json:"object"`
	}
	var objs []obj
	for _, a := range probe.Attrs {
		fmt.Fprintf(&stdin, "%s\t%s\n", a.Attribute, a.Value)
		objs = append(objs, obj{a.Attribute, a.Value})
	}
	for _, o := range probe.Objects {
		fmt.Fprintf(&stdin, "%s\t%s\n", o.Predicate, o.Object)
		objs = append(objs, obj{o.Predicate, o.Object})
	}
	objsJSON, err := json.Marshal(objs)
	if err != nil {
		t.Fatal(err)
	}
	serverFresh := queryCandidates(t, base, "smoke", fmt.Sprintf(`{"uri":"smoke:probe","objects":%s}`, objsJSON))
	cliFresh := runCLI(t, cliBin, e1Path, e2Path, "smoke:probe", stdin.String())
	if !bytes.Equal(serverFresh, cliFresh) {
		t.Errorf("new-entity candidates differ between server and CLI:\n--- server ---\n%s\n--- cli ---\n%s", serverFresh, cliFresh)
	}

	// Snapshot warm start: persist the substrate with the CLI, load it as a
	// second pair, and require byte-identical candidates plus a readiness
	// time that beats the rebuild path (mmap open + instant prewarm vs KB
	// parse + substrate build + prewarm).
	snapPath := filepath.Join(tmp, "pair.snap")
	saveCmd := exec.Command(cliBin, "-e1", e1Path, "-e2", e2Path, "-save-snapshot", snapPath,
		"-query", replayURI, "-json", "-quiet")
	if out, err := saveCmd.CombinedOutput(); err != nil {
		t.Fatalf("minoaner -save-snapshot: %v\n%s", err, out)
	}
	resp = httpJSON(t, http.MethodPost, base+"/v1/pairs", fmt.Sprintf(`{"id":"snap","snapshot":%q}`, snapPath))
	if resp.status != http.StatusAccepted {
		t.Fatalf("load snapshot pair = %d: %s", resp.status, resp.body)
	}
	awaitReady(t, base, "snap")
	snapReplay := queryCandidates(t, base, "snap", fmt.Sprintf(`{"uri":%q}`, replayURI))
	if !bytes.Equal(snapReplay, serverReplay) {
		t.Errorf("snapshot-pair candidates differ from built pair:\n--- snapshot ---\n%s\n--- built ---\n%s", snapReplay, serverReplay)
	}
	var built, snap struct {
		LoadMS    float64         `json:"load_ms"`
		BuildMS   float64         `json:"build_ms"`
		PrewarmMS float64         `json:"prewarm_ms"`
		Timings   json.RawMessage `json:"timings"`
	}
	if err := json.Unmarshal(httpJSON(t, http.MethodGet, base+"/v1/pairs/smoke", "").body, &built); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(httpJSON(t, http.MethodGet, base+"/v1/pairs/snap", "").body, &snap); err != nil {
		t.Fatal(err)
	}
	if built.LoadMS <= 0 || built.BuildMS <= 0 || built.PrewarmMS <= 0 || built.Timings == nil {
		t.Errorf("the built pair reports load %.2f, build %.2f, prewarm %.2f ms and timings %s: want all of them",
			built.LoadMS, built.BuildMS, built.PrewarmMS, built.Timings)
	}
	if snap.BuildMS != 0 || snap.Timings != nil {
		t.Errorf("the pair opened from a snapshot reports a build of %.2f ms and timings %s: a snapshot records none", snap.BuildMS, snap.Timings)
	}
	rebuild := built.LoadMS + built.BuildMS + built.PrewarmMS
	warm := snap.LoadMS + snap.PrewarmMS
	if warm >= rebuild {
		t.Errorf("snapshot readiness %.2fms is not faster than rebuild %.2fms (load %.2f + build %.2f + prewarm %.2f)",
			warm, rebuild, built.LoadMS, built.BuildMS, built.PrewarmMS)
	}
	t.Logf("warm start: snapshot ready in %.2fms vs rebuild %.2fms", warm, rebuild)

	// Queries do not wait for builds: while a pair large enough to build for
	// a second or more is building — in a child process of the server — the
	// first pair answers as if nothing else were going on. With the build
	// inside the server the median here was about 15 ms at one processor.
	big, err := minoaner.GenerateBenchmark(minoaner.ScaleProfile(minoaner.YAGOIMDbProfile(), 3))
	if err != nil {
		t.Fatal(err)
	}
	bigE1, bigE2 := filepath.Join(tmp, "big1.nt"), filepath.Join(tmp, "big2.nt")
	writeKB(t, bigE1, big.K1)
	writeKB(t, bigE2, big.K2)
	resp = httpJSON(t, http.MethodPost, base+"/v1/pairs", fmt.Sprintf(`{"id":"big","e1":%q,"e2":%q}`, bigE1, bigE2))
	if resp.status != http.StatusAccepted {
		t.Fatalf("load big pair = %d: %s", resp.status, resp.body)
	}
	sawChild := false
	for deadline := time.Now().Add(10 * time.Second); !sawChild && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		kids, ok := childrenOf(srv.Process.Pid)
		if !ok {
			t.Log("no /proc: not checking for the build child")
			break
		}
		for _, argv := range kids {
			sawChild = sawChild || len(argv) > 1 && argv[1] == "build-child"
		}
	}
	if _, ok := childrenOf(srv.Process.Pid); ok && !sawChild {
		t.Error("no child of the server with argv[1] == build-child while the big pair builds")
	}
	lat := make([]time.Duration, 200)
	replayBody := fmt.Sprintf(`{"uri":%q}`, replayURI)
	for i := range lat {
		t0 := time.Now()
		if r := httpJSON(t, http.MethodPost, base+"/v1/pairs/smoke/query", replayBody); r.status != http.StatusOK {
			t.Fatalf("query %d beside the build = %d: %s", i, r.status, r.body)
		}
		lat[i] = time.Since(t0)
	}
	if r := httpJSON(t, http.MethodGet, base+"/v1/pairs/big", ""); !bytes.Contains(r.body, []byte(`"building"`)) {
		t.Errorf("the big pair finished building before the 200 queries did; they measured nothing: %s", r.body)
	}
	slices.Sort(lat)
	if median := lat[len(lat)/2]; median > 5*time.Millisecond {
		t.Errorf("median query beside a build took %v, want under 5ms", median)
	} else {
		t.Logf("median query beside a build: %v (slowest %v)", median, lat[len(lat)-1])
	}
	awaitReady(t, base, "big")
	if kids, _ := childrenOf(srv.Process.Pid); len(kids) != 0 {
		t.Errorf("children of the server left after the build: %v", kids)
	}

	// SIGTERM: the server must drain and exit cleanly.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("minoanerd exited uncleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("minoanerd did not exit within 30s of SIGTERM")
	}
	<-drained
	out := tail.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "shutdown complete") {
		t.Errorf("drain messages missing from stdout:\n%s", out)
	}
}

// TestServeTermDuringPreload sends SIGTERM while a -pair is still being
// built: the server must abort the build and leave through the drain path
// with status 0, not die by the signal's default action. The pair's e1 is a
// FIFO that the test holds open and never writes, so the build child, once
// it has opened it, cannot finish before the signal lands, however fast the
// machine.
func TestServeTermDuringPreload(t *testing.T) {
	if os.Getenv("MINOANER_SERVE_SMOKE") == "" {
		t.Skip("set MINOANER_SERVE_SMOKE=1 (or run `make serve-smoke`) to exercise the minoanerd binary")
	}
	tmp := t.TempDir()
	d, err := minoaner.GenerateBenchmark(minoaner.ScaleProfile(minoaner.RestaurantProfile(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	e1Path, e2Path := filepath.Join(tmp, "e1.nt"), filepath.Join(tmp, "e2.nt")
	if out, err := exec.Command("mkfifo", e1Path).CombinedOutput(); err != nil {
		t.Fatalf("mkfifo: %v: %s", err, out)
	}
	writeKB(t, e2Path, d.K2)
	serverBin := buildBinary(t, tmp, "minoanerd", "./cmd/minoanerd")

	var stdout bytes.Buffer
	srv := exec.Command(serverBin, "-addr", "127.0.0.1:0", "-quiet",
		"-pair", fmt.Sprintf(`{"id":"big","e1":%q,"e2":%q}`, e1Path, e2Path))
	srv.Stdout, srv.Stderr = &stdout, os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill() //nolint:errcheck // last-resort cleanup
	// Opening the FIFO for writing returns once the build child has opened
	// it for reading: the server installed its signal handler before it
	// started the build, and the build now waits for input that never comes.
	gate := make(chan *os.File, 1)
	go func() {
		if w, err := os.OpenFile(e1Path, os.O_WRONLY, 0); err == nil {
			gate <- w
		}
	}()
	select {
	case w := <-gate:
		defer w.Close()
	case <-time.After(30 * time.Second):
		// A reader of our own lets the blocked open return.
		if r, err := os.OpenFile(e1Path, os.O_RDONLY|syscall.O_NONBLOCK, 0); err == nil {
			defer r.Close()
		}
		t.Fatalf("the preload did not open e1 within 30s:\n%s", stdout.String())
	}
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("minoanerd exited uncleanly on SIGTERM during a preload: %v\n%s", err, stdout.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("minoanerd did not exit within 30s of SIGTERM")
	}
	out := stdout.String()
	if strings.Contains(out, "pair big ready") {
		t.Errorf("the preload finished although its e1 was never written:\n%s", out)
	}
	if !strings.Contains(out, "draining") || !strings.Contains(out, "shutdown complete") {
		t.Errorf("drain messages missing from stdout:\n%s", out)
	}
}

// childrenOf lists the child processes of pid, zombies included, by their
// pid with their arguments (none for a zombie); ok is false where there is no
// /proc to read them from.
func childrenOf(pid int) (kids map[int][]string, ok bool) {
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	if len(stats) == 0 {
		return nil, false
	}
	kids = make(map[int][]string)
	for _, path := range stats {
		stat, err := os.ReadFile(path)
		if err != nil {
			continue // gone since the glob
		}
		// pid (comm) state ppid ...; comm may itself hold spaces and brackets.
		f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(f) < 2 || f[1] != strconv.Itoa(pid) {
			continue
		}
		kid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
		cmdline, _ := os.ReadFile(filepath.Join(filepath.Dir(path), "cmdline"))
		kids[kid] = strings.Split(strings.TrimSuffix(string(cmdline), "\x00"), "\x00")
	}
	return kids, true
}

// writeKB serializes one KB as N-Triples.
func writeKB(t *testing.T, path string, k *minoaner.KB) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := minoaner.WriteNTriples(f, k); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// buildBinary compiles one command into dir.
func buildBinary(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

type httpResult struct {
	status int
	body   []byte
}

func httpJSON(t *testing.T, method, url, body string) httpResult {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return httpResult{resp.StatusCode, data}
}

// awaitReady polls one pair's status until it is ready (or fails the test
// on a build failure / 60s timeout).
func awaitReady(t *testing.T, base, pair string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		r := httpJSON(t, http.MethodGet, base+"/v1/pairs/"+pair, "")
		if err := json.Unmarshal(r.body, &info); err != nil {
			t.Fatalf("pair info %s: %v", r.body, err)
		}
		if info.Status == "ready" {
			return
		}
		if info.Status == "failed" {
			t.Fatalf("pair build failed: %s", info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("pair still %q after 60s", info.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// queryCandidates posts one query and re-indents the raw candidates array
// exactly the way the CLI's JSON encoder prints it, preserving the original
// number literals (no decode/re-encode drift).
func queryCandidates(t *testing.T, base, pair, body string) []byte {
	t.Helper()
	r := httpJSON(t, http.MethodPost, base+"/v1/pairs/"+pair+"/query", body)
	if r.status != http.StatusOK {
		t.Fatalf("query = %d: %s", r.status, r.body)
	}
	var resp struct {
		Candidates json.RawMessage `json:"candidates"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.Fatalf("query response %s: %v", r.body, err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, resp.Candidates, "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// runCLI resolves one query through cmd/minoaner -query -json -quiet.
func runCLI(t *testing.T, bin, e1, e2, uri, stdin string) []byte {
	t.Helper()
	cmd := exec.Command(bin, "-e1", e1, "-e2", e2, "-query", uri, "-json", "-quiet")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("minoaner -query %s: %v\n%s", uri, err, errb.String())
	}
	return out.Bytes()
}
