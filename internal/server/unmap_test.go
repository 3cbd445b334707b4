package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/snapshot"
)

// restaurantSnapshot writes the snapshot of a generated Restaurant pair —
// a few megabytes, so that leaked mappings would show — and returns its
// path, its size and the URI of an E1 entity that has a match.
func restaurantSnapshot(t *testing.T) (path string, size int64, uri string) {
	t.Helper()
	d, err := datagen.Generate(datagen.Restaurant())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sub, err := core.BuildSubstrate(ctx, d.K1, d.K2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.PrewarmQueries(ctx); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "pair.snap")
	if err := snapshot.WriteSubstrateFile(path, sub); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, st.Size(), d.K1.URI(d.GT.Pairs()[0].E1)
}

// mappingsOf counts this process's memory mappings of the file at path.
func mappingsOf(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps to count mappings in: %v", err)
	}
	return bytes.Count(maps, []byte(path))
}

// rssBytes reads this process's resident set size.
func rssBytes(t *testing.T) int64 {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status to read the RSS from: %v", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Skip("no VmRSS line in /proc/self/status")
	return 0
}

func loadSnapshotPair(t *testing.T, s *Server, base, id, path string) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"snapshot":%q}`, id, path)
	if status := doJSON(t, http.MethodPost, base+"/v1/pairs", body, nil); status != http.StatusAccepted {
		t.Fatalf("load = %d", status)
	}
	p, _ := s.reg.Get(id)
	<-p.Done()
}

// A pair opened from a snapshot reports how long the open took and nothing
// of a build: the file holds the pair, not how long its build took.
func TestSnapshotPairReportsNoBuild(t *testing.T) {
	path, _, _ := restaurantSnapshot(t)
	s := New(quietOptions())
	defer s.reg.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadSnapshotPair(t, s, ts.URL, "snap", path)
	p, _ := s.reg.Get("snap")
	if info := s.reg.Info(p); info.Status != StatusReady || info.LoadMS <= 0 || info.BuildMS != 0 || info.PrewarmMS != 0 || info.Timings != nil {
		t.Fatalf("snapshot pair = %+v, want ready with only its load time", info)
	}
}

// TestDeleteUnmapsSnapshot cycles a snapshot-backed pair through load,
// query, resolve and delete fifty times while other clients keep querying
// it: every query either gets its candidates or is told the pair is gone or
// not ready (never reads an unmapped page, which would kill the process),
// and at the end no mapping of the file is left and the RSS has not grown
// by what fifty leaked mappings would hold.
func TestDeleteUnmapsSnapshot(t *testing.T) {
	path, size, uri := restaurantSnapshot(t)
	s := New(quietOptions())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	query := fmt.Sprintf(`{"uri":%q}`, uri)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopRacers := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopRacers()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/pairs/snap/query", "application/json", strings.NewReader(query))
				if err != nil {
					t.Errorf("racing query: %v", err)
					return
				}
				var q QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if err != nil || len(q.Candidates) == 0 || q.Candidates[0].URI == "" {
						t.Errorf("racing query answered without candidates: %+v (%v)", q, err)
					}
				case http.StatusNotFound, http.StatusConflict:
				default:
					t.Errorf("racing query = %d", resp.StatusCode)
				}
			}
		}()
	}

	const cycles, warmup = 50, 10
	var rss0 int64
	for i := 0; i < cycles; i++ {
		if i == warmup {
			rss0 = rssBytes(t)
		}
		loadSnapshotPair(t, s, ts.URL, "snap", path)
		var q QueryResponse
		if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/snap/query", query, &q); status != 200 || len(q.Candidates) == 0 {
			t.Fatalf("cycle %d: query = %d %+v", i, status, q)
		}
		var r ResolveResponse
		if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/snap/resolve", `{}`, &r); status != 200 || r.MatchCount == 0 {
			t.Fatalf("cycle %d: resolve = %d, %d matches", i, status, r.MatchCount)
		}
		if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/pairs/snap", "", nil); status != http.StatusNoContent {
			t.Fatalf("cycle %d: delete = %d", i, status)
		}
	}
	stopRacers()
	if n := mappingsOf(t, path); n != 0 {
		t.Errorf("%d mappings of the snapshot left after %d load/delete cycles, want 0", n, cycles)
	}
	// A resolve touches most of the file, so each leaked mapping would keep
	// about its size resident.
	if grown, leak := rssBytes(t)-rss0, int64(cycles-warmup)*size; grown > leak/4 {
		t.Errorf("RSS grew by %d KB over %d cycles; leaking the %d KB snapshot each time would add %d KB",
			grown>>10, cycles-warmup, size>>10, leak>>10)
	}
}

// TestDeleteWaitsForInFlightQuery parks a query on a snapshot-backed pair,
// deletes the pair under it, and checks the mapping outlives the delete
// until the query has answered.
func TestDeleteWaitsForInFlightQuery(t *testing.T) {
	path, _, uri := restaurantSnapshot(t)
	s := New(quietOptions())
	hold, entered := parkQueries(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadSnapshotPair(t, s, ts.URL, "snap", path)
	if mappingsOf(t, path) == 0 {
		t.Skip("the snapshot was read, not mapped, on this platform")
	}

	type result struct {
		status int
		resp   QueryResponse
	}
	got := make(chan result, 1)
	go func() {
		var r result
		r.status = doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/snap/query", fmt.Sprintf(`{"uri":%q}`, uri), &r.resp)
		got <- r
	}()
	<-entered // the query holds its reference and is parked
	if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/pairs/snap", "", nil); status != http.StatusNoContent {
		t.Fatalf("delete = %d", status)
	}
	if status, code := errCode(t, http.MethodGet, ts.URL+"/v1/pairs/snap/entities", ""); status != 404 || code != CodePairNotFound {
		t.Errorf("entities after delete = %d %q, want 404 %q", status, code, CodePairNotFound)
	}
	if n := mappingsOf(t, path); n == 0 {
		t.Fatal("delete unmapped the snapshot under a query in flight")
	}
	close(hold)
	if r := <-got; r.status != 200 || len(r.resp.Candidates) == 0 || r.resp.Candidates[0].URI == "" {
		t.Fatalf("query across the delete = %d %+v", r.status, r.resp)
	}
	if n := mappingsOf(t, path); n != 0 {
		t.Errorf("%d mappings left once the last query released the deleted pair, want 0", n)
	}
}

// A pair deleted while its snapshot is still being opened must not leave the
// mapping behind either.
func TestDeleteWhileOpeningSnapshot(t *testing.T) {
	path, _, _ := restaurantSnapshot(t)
	r := NewRegistry()
	defer r.Close()
	for i := 0; i < 20; i++ {
		p, _, err := r.Load(LoadPairRequest{ID: "snap", Snapshot: path})
		if err != nil {
			t.Fatal(err)
		}
		r.Delete("snap") // races the build goroutine's open
		<-p.Done()
	}
	if n := mappingsOf(t, path); n != 0 {
		t.Errorf("%d mappings left by pairs deleted while opening, want 0", n)
	}
}
