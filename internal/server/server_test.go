package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/snapshot"
	"minoaner/internal/testkb"
)

// TestMain lets the test binary stand in for minoanerd as the build child:
// started with BuildChildArg it runs the child body, or — with one more
// argument — one of the misbehaving children of buildchild_test.go.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == BuildChildArg {
		if len(os.Args) > 2 {
			os.Exit(badChild(os.Args[2]))
		}
		os.Exit(BuildChild(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// badChild is a build child that reads its spec and then goes wrong.
func badChild(how string) int {
	var spec LoadPairRequest
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		return 2
	}
	switch how {
	case "garbage": // reports success over a file that is no snapshot
		if err := os.WriteFile(spec.SaveSnapshot, bytes.Repeat([]byte("not a snapshot "), 64), 0o644); err != nil {
			return 2
		}
		fmt.Println("{}")
		return 0
	case "panic":
		panic("the build went wrong")
	}
	return 2
}

// figure1Substrate builds the paper's Figure 1 pair into a query-ready
// substrate — small enough that every test can afford a fresh one.
func figure1Substrate(t *testing.T) *core.Substrate {
	t.Helper()
	k1, k2 := testkb.Figure1()
	sub, err := core.BuildSubstrate(context.Background(), k1, k2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.PrewarmQueries(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sub
}

func quietOptions() Options {
	return Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// parkQueries makes every query of s announce itself on entered and then
// wait for hold to close, so a test can act while a request is in flight.
func parkQueries(s *Server) (hold, entered chan struct{}) {
	hold, entered = make(chan struct{}), make(chan struct{})
	s.beforeQuery = func() {
		entered <- struct{}{}
		<-hold
	}
	return hold, entered
}

// newTestServer wires a Server's handler under httptest and registers the
// Figure 1 substrate as pair "fig1".
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(quietOptions())
	if _, err := s.reg.AddSubstrate("fig1", LoadPairRequest{E1: "mem:wd", E2: "mem:dbp", Format: "nt"}, figure1Substrate(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON posts body to url and decodes the response into out, returning the
// status code.
func doJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(bytes.TrimSpace(data)) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// errCode extracts the stable code of an error envelope response.
func errCode(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var env ErrorEnvelope
	status := doJSON(t, method, url, body, &env)
	return status, env.Error.Code
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t)
	var h HealthResponse
	if status := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", &h); status != 200 || h.Status != "ok" || h.Pairs != 1 {
		t.Errorf("healthz = %d %+v", status, h)
	}
	// Readiness is owned by the lifecycle (Start/Shutdown); before Start the
	// handler reports draining with the stable code.
	if status, code := errCode(t, http.MethodGet, ts.URL+"/readyz", ""); status != 503 || code != CodeShuttingDown {
		t.Errorf("readyz before Start = %d %q, want 503 %q", status, code, CodeShuttingDown)
	}
	s.ready.Store(true)
	var r HealthResponse
	if status := doJSON(t, http.MethodGet, ts.URL+"/readyz", "", &r); status != 200 || r.Status != "ready" {
		t.Errorf("readyz = %d %+v", status, r)
	}
}

func TestUnknownPairPaths(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodPost, "/v1/pairs/nope/query", `{"uri":"w:Restaurant1"}`},
		{http.MethodPost, "/v1/pairs/nope/resolve", `{}`},
		{http.MethodGet, "/v1/pairs/nope", ""},
		{http.MethodGet, "/v1/pairs/nope/entities", ""},
		{http.MethodDelete, "/v1/pairs/nope", ""},
	} {
		if status, code := errCode(t, tc.method, ts.URL+tc.path, tc.body); status != 404 || code != CodePairNotFound {
			t.Errorf("%s %s = %d %q, want 404 %q", tc.method, tc.path, status, code, CodePairNotFound)
		}
	}
}

func TestMalformedAndOversizedBodies(t *testing.T) {
	opts := quietOptions()
	opts.MaxBodyBytes = 128
	s := New(opts)
	if _, err := s.reg.AddSubstrate("fig1", LoadPairRequest{E1: "mem:wd", E2: "mem:dbp"}, figure1Substrate(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"truncated":     `{"uri":`,
		"wrong type":    `{"uri":42}`,
		"unknown field": `{"entity":"w:Restaurant1"}`,
		// A body is one value: what follows it is refused, not dropped.
		"second value":     `{"uri":"w:Restaurant1"} {"uri":"w:Restaurant2"}`,
		"trailing garbage": `{"uri":"w:Restaurant1"}garbage`,
		"trailing bracket": `{"uri":"w:Restaurant1"}]`,
	} {
		if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", body); status != 400 || code != CodeInvalidRequest {
			t.Errorf("%s body = %d %q, want 400 %q", name, status, code, CodeInvalidRequest)
		}
	}
	// A replay URI that is not an E1 member and carries no statements cannot
	// be resolved into an entity description.
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", `{"uri":"w:NoSuch"}`); status != 400 || code != CodeInvalidRequest {
		t.Errorf("unknown replay uri = %d %q, want 400 %q", status, code, CodeInvalidRequest)
	}
	// A trailing newline is whitespace (json.Encoder and curl -d @file send
	// one).
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", "{\"uri\":\"w:Restaurant1\"}\n", nil); status != 200 {
		t.Errorf("body ending in a newline = %d, want 200", status)
	}
	huge := fmt.Sprintf(`{"uri":%q}`, strings.Repeat("x", 256))
	padded := `{"uri":"w:Restaurant1"}` + strings.Repeat(" ", 256)
	for name, body := range map[string]string{"oversized body": huge, "oversized tail": padded} {
		if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", body); status != 413 || code != CodeBodyTooLarge {
			t.Errorf("%s = %d %q, want 413 %q", name, status, code, CodeBodyTooLarge)
		}
	}
	// The pair-load path shares the decoder, so its validation errors also
	// arrive as invalid_request.
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs", `{"e1":"only-one-side.nt"}`); status != 400 || code != CodeInvalidRequest {
		t.Errorf("load without e2 = %d %q, want 400 %q", status, code, CodeInvalidRequest)
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs", `{"e1":"a.nt","e2":"b.nt","format":"xml"}`); status != 400 || code != CodeInvalidRequest {
		t.Errorf("bad format = %d %q, want 400 %q", status, code, CodeInvalidRequest)
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs", `{"id":"x","e1":"a.nt","e2":"b.nt"}garbage`); status != 400 || code != CodeInvalidRequest {
		t.Errorf("load with trailing data = %d %q, want 400 %q", status, code, CodeInvalidRequest)
	}
	// Fields the wire no longer has are unknown fields like any other.
	for _, tc := range []struct{ path, body string }{
		{"/v1/pairs", `{"e1":"a.nt","e2":"b.nt","stream":true}`},
		{"/v1/pairs", `{"e1":"a.nt","e2":"b.nt","prewarm":true}`},
		{"/v1/pairs/fig1/resolve", `{"shards":8}`},
	} {
		if status, code := errCode(t, http.MethodPost, ts.URL+tc.path, tc.body); status != 400 || code != CodeInvalidRequest {
			t.Errorf("POST %s %s = %d %q, want 400 %q", tc.path, tc.body, status, code, CodeInvalidRequest)
		}
	}
}

// A load whose config asks for more workers than the server has processors,
// or for fewer than none, is refused with a 400 that names the field, and
// no build starts: the build sizes per-worker state by the count.
func TestLoadRefusesWorkersBeyondProcessors(t *testing.T) {
	s := New(quietOptions())
	s.reg.buildPair = func(context.Context, LoadPairRequest) (*core.Substrate, buildReport, error) {
		return nil, buildReport{}, errors.New("no build may start")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, workers := range []int{runtime.GOMAXPROCS(0) + 1, -1} {
		var env ErrorEnvelope
		body := fmt.Sprintf(`{"e1":"a.nt","e2":"b.nt","config":{"workers":%d}}`, workers)
		if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", body, &env); status != 400 ||
			env.Error.Code != CodeInvalidRequest || !strings.Contains(env.Error.Message, "config.workers") {
			t.Errorf("workers %d = %d %+v, want 400 %q naming config.workers", workers, status, env.Error, CodeInvalidRequest)
		}
	}
	if n := s.reg.Builds(); n != 0 {
		t.Fatalf("%d builds started", n)
	}
	if pairs := s.reg.List(); len(pairs) != 0 {
		t.Fatalf("refused loads registered %d pairs", len(pairs))
	}
	// The server's own processor count is accepted.
	body := fmt.Sprintf(`{"e1":"a.nt","e2":"b.nt","config":{"workers":%d}}`, runtime.GOMAXPROCS(0))
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", body, nil); status != http.StatusAccepted {
		t.Fatalf("workers = GOMAXPROCS: status %d, want 202", status)
	}
}

func TestQueryReplayAndExplicit(t *testing.T) {
	_, ts := newTestServer(t)

	var replay QueryResponse
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", `{"uri":"w:Restaurant1"}`, &replay); status != 200 {
		t.Fatalf("replay query status = %d", status)
	}
	if replay.Pair != "fig1" || len(replay.Candidates) == 0 {
		t.Fatalf("replay response = %+v", replay)
	}
	if replay.Candidates[0].URI != "d:Restaurant2" {
		t.Errorf("replay top candidate = %+v, want d:Restaurant2", replay.Candidates[0])
	}

	// The explicit format describes a new entity; the same description should
	// reach the same top candidate.
	explicit := `{"uri":"ext:TheFatDuck","attrs":[{"attribute":"label","value":"The Fat Duck"},{"attribute":"stars","value":"3 Michelin"}],"objects":[{"predicate":"hasChef","object":"w:JohnLakeA"},{"predicate":"territorial","object":"w:Bray"}]}`
	var fresh QueryResponse
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", explicit, &fresh); status != 200 {
		t.Fatalf("explicit query status = %d", status)
	}
	if len(fresh.Candidates) == 0 || fresh.Candidates[0].URI != "d:Restaurant2" {
		t.Errorf("explicit top candidate = %+v, want d:Restaurant2", fresh.Candidates)
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", `{"self_uri":"w:NoSuch","attrs":[{"attribute":"label","value":"x"}]}`); status != 400 || code != CodeInvalidRequest {
		t.Errorf("bad self_uri = %d %q, want 400 %q", status, code, CodeInvalidRequest)
	}

	// The query counter on the pair's info reflects the served queries.
	var info PairInfo
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/pairs/fig1", "", &info); status != 200 {
		t.Fatalf("get pair status = %d", status)
	}
	if info.Status != StatusReady || info.Queries != 2 || info.E1Size == 0 {
		t.Errorf("pair info = %+v, want ready with 2 queries", info)
	}
}

func TestResolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var res ResolveResponse
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/resolve", `{}`, &res); status != 200 {
		t.Fatalf("resolve status = %d", status)
	}
	if res.MatchCount == 0 || len(res.Matches) != res.MatchCount {
		t.Fatalf("resolve response = %+v", res)
	}
	found := false
	for _, m := range res.Matches {
		if m.URI1 == "w:Restaurant1" && m.URI2 == "d:Restaurant2" {
			found = true
		}
	}
	if !found {
		t.Errorf("resolve missed the Figure 1 restaurant match: %+v", res.Matches)
	}
}

func TestEntitiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var all EntitiesResponse
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/pairs/fig1/entities?limit=0", "", &all); status != 200 {
		t.Fatalf("entities status = %d", status)
	}
	if all.Count != 4 || len(all.URIs) != 4 {
		t.Errorf("entities = %+v, want all 4 E1 URIs", all)
	}
	var two EntitiesResponse
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/pairs/fig1/entities?limit=2", "", &two); status != 200 || len(two.URIs) != 2 || two.Count != 4 {
		t.Errorf("entities limit=2 = %d %+v", status, two)
	}
	if status, code := errCode(t, http.MethodGet, ts.URL+"/v1/pairs/fig1/entities?limit=-3", ""); status != 400 || code != CodeInvalidRequest {
		t.Errorf("negative limit = %d %q", status, code)
	}
}

// A pair whose E1 URI offsets are damaged answers neither a query that
// looks an E1 URI up — a replay by uri, or an explicit description with
// self_uri — nor a batch resolution nor an entity listing as if the URI
// were absent or empty: each is a 500 that names the damage, not a 400 that
// blames the client.
func TestDamagedURIsAreAnInternalError(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.WriteSubstrate(&buf, figure1Substrate(t)); err != nil {
		t.Fatal(err)
	}
	loaded, err := snapshot.ReadSubstrate(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sub := loaded.Substrate()
	_, off, _ := sub.K1().SnapshotParts().URIs.Parts() // decoded, so writable
	off[1] = off[len(off)-1] + 1
	s := New(quietOptions())
	if _, err := s.reg.AddSubstrate("bad", LoadPairRequest{E1: "mem:wd", E2: "mem:dbp", Format: "nt"}, sub); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, req := range [][3]string{
		{http.MethodPost, "/v1/pairs/bad/query", `{"uri":"w:Restaurant1","self_uri":"w:Restaurant1","attrs":[{"attribute":"label","value":"Joe's Diner"}]}`},
		{http.MethodPost, "/v1/pairs/bad/query", `{"uri":"w:Restaurant1"}`},
		{http.MethodPost, "/v1/pairs/bad/resolve", `{}`},
		{http.MethodGet, "/v1/pairs/bad/entities?limit=2", ``},
	} {
		if status, code := errCode(t, req[0], ts.URL+req[1], req[2]); status != 500 || code != CodeInternal {
			t.Errorf("%s %s %s on damaged URIs = %d %q, want 500 %q", req[0], req[1], req[2], status, code, CodeInternal)
		}
	}
}

// A pair whose KB token column is damaged answers a description of a new
// entity, whose token blocks are derived from that column, with a 500 that
// names the damage, not with an empty β row; a replay by URI, which reads
// the stored rows, still answers.
func TestDamagedTokenColumnIsAnInternalError(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.WriteSubstrate(&buf, figure1Substrate(t)); err != nil {
		t.Fatal(err)
	}
	loaded, err := snapshot.ReadSubstrate(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sub := loaded.Substrate()
	sub.K2().SnapshotParts().Tokens[0] = 1 << 20 // decoded, so writable
	s := New(quietOptions())
	if _, err := s.reg.AddSubstrate("bad", LoadPairRequest{E1: "mem:wd", E2: "mem:dbp", Format: "nt"}, sub); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if status, _ := rawCandidates(t, ts.URL+"/v1/pairs/bad/query", `{"uri":"w:Restaurant1"}`); status != 200 {
		t.Errorf("a replay by uri on a damaged token column = %d, want 200", status)
	}
	describe := `{"uri":"q:new","attrs":[{"attribute":"label","value":"The Fat Duck"}]}`
	for round := 0; round < 2; round++ {
		if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/bad/query", describe); status != 500 || code != CodeInternal {
			t.Errorf("describe %d on a damaged token column = %d %q, want 500 %q", round, status, code, CodeInternal)
		}
	}
}

// explicitRequest is the explicit form of a replay: E1 entity e's own
// statements, with its URI as uri and self_uri.
func explicitRequest(t *testing.T, k1 *kb.KB, e kb.EntityID) string {
	t.Helper()
	d, err := k1.Describe(e)
	if err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{URI: d.URI, SelfURI: d.URI}
	for _, a := range d.Attrs {
		req.Attrs = append(req.Attrs, QueryAttr{Attribute: a.Attribute, Value: a.Value})
	}
	for _, r := range d.Relations {
		req.Objects = append(req.Objects, QueryObject{Predicate: r.Predicate, Object: k1.URI(r.Object)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// rawCandidates posts a query and returns the status and the response's
// candidates array as the server wrote it.
func rawCandidates(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	var resp struct {
		Candidates json.RawMessage `json:"candidates"`
	}
	status := doJSON(t, http.MethodPost, url, body, &resp)
	return status, resp.Candidates
}

// A replay is answered from the pair's stored rows and an explicit query
// from its statements; for every E1 entity the two must write the same
// candidate bytes.
func TestReplayEqualsExplicitQuery(t *testing.T) {
	d, err := datagen.Generate(datagen.Scale(datagen.Restaurant(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.BuildSubstrate(context.Background(), d.K1, d.K2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(quietOptions())
	if _, err := s.reg.AddSubstrate("rest", LoadPairRequest{E1: "mem:e1", E2: "mem:e2", Format: "nt"}, sub); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	url := ts.URL + "/v1/pairs/rest/query"
	ranked := 0
	for i := range d.K1.Len() {
		e := kb.EntityID(i)
		replay, err := json.Marshal(QueryRequest{URI: d.K1.URI(e)})
		if err != nil {
			t.Fatal(err)
		}
		rs, rc := rawCandidates(t, url, string(replay))
		es, ec := rawCandidates(t, url, explicitRequest(t, d.K1, e))
		if rs != 200 || es != 200 || !bytes.Equal(rc, ec) {
			t.Fatalf("entity %s: replay %d %s, explicit %d %s", d.K1.URI(e), rs, rc, es, ec)
		}
		if string(rc) != "[]" {
			ranked++
		}
	}
	if ranked == 0 {
		t.Fatal("no entity has candidates; test is vacuous")
	}
}

// A query that touches a damaged graph row of a snapshot-backed pair is a
// 500, not a 400: the pair is damaged, not the request. Replays read the
// entity's stored α and β rows and its neighbours' adjacency; explicit
// queries compute β from the token index, so only the adjacency damage
// reaches them, and over a damaged β row they answer as the intact pair.
func TestDamagedGraphRowsAreAnInternalError(t *testing.T) {
	const uri = "w:Restaurant1"
	cases := []struct {
		name         string
		damage       func(g *graph.Graph, e kb.EntityID, n2 int)
		explicitFail bool
	}{
		{"adj1 targets", func(g *graph.Graph, _ kb.EntityID, n2 int) {
			g.Adj1.Flat = slices.Clone(g.Adj1.Flat)
			for i := range g.Adj1.Flat {
				g.Adj1.Flat[i].To = kb.EntityID(n2)
			}
		}, true},
		{"beta1 target", func(g *graph.Graph, e kb.EntityID, n2 int) {
			g.Beta1.Flat = slices.Clone(g.Beta1.Flat)
			g.Beta1.Flat[g.Beta1.Off[e]].To = kb.EntityID(n2)
		}, false},
		{"beta1 weight", func(g *graph.Graph, e kb.EntityID, _ int) {
			g.Beta1.Flat = slices.Clone(g.Beta1.Flat)
			g.Beta1.Flat[g.Beta1.Off[e]] = graph.NewEdge(g.Beta1.Flat[g.Beta1.Off[e]].To, math.NaN())
		}, false},
	}
	_, intact := newTestServer(t)
	k1 := figure1Substrate(t).K1()
	e := k1.Lookup(uri)
	explicit := explicitRequest(t, k1, e)
	_, wantExplicit := rawCandidates(t, intact.URL+"/v1/pairs/fig1/query", explicit)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := snapshot.WriteSubstrate(&buf, figure1Substrate(t)); err != nil {
				t.Fatal(err)
			}
			loaded, err := snapshot.ReadSubstrate(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			sub := loaded.Substrate()
			pg, err := sub.ExportGraph(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			g := *pg
			if g.Beta1.Off[e] == g.Beta1.Off[e+1] {
				t.Fatalf("%s has no β row; test is vacuous", uri)
			}
			c.damage(&g, e, sub.K2().Len())
			if err := sub.InstallGraph(&g); err != nil {
				t.Fatal(err)
			}
			s := New(quietOptions())
			if _, err := s.reg.AddSubstrate("bad", LoadPairRequest{E1: "mem:wd", E2: "mem:dbp", Format: "nt"}, sub); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			url := ts.URL + "/v1/pairs/bad/query"
			if status, code := errCode(t, http.MethodPost, url, `{"uri":"`+uri+`"}`); status != 500 || code != CodeInternal {
				t.Errorf("replay = %d %q, want 500 %q", status, code, CodeInternal)
			}
			if c.explicitFail {
				if status, code := errCode(t, http.MethodPost, url, explicit); status != 500 || code != CodeInternal {
					t.Errorf("explicit query = %d %q, want 500 %q", status, code, CodeInternal)
				}
			} else if status, got := rawCandidates(t, url, explicit); status != 200 || !bytes.Equal(got, wantExplicit) {
				t.Errorf("explicit query = %d %s, want 200 %s", status, got, wantExplicit)
			}
		})
	}
}

// TestConcurrentFirstLoadSingleflight loads the same spec from many clients
// at once and asserts exactly one build goroutine ever ran — the registry's
// singleflight invariant, observed through Registry.Builds.
func TestConcurrentFirstLoadSingleflight(t *testing.T) {
	s := New(quietOptions())
	sub := figure1Substrate(t)
	release := make(chan struct{})
	s.reg.buildPair = func(ctx context.Context, _ LoadPairRequest) (*core.Substrate, buildReport, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, buildReport{}, ctx.Err()
		}
		return sub, buildReport{}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	spec := `{"e1":"shared.nt","e2":"other.nt"}`
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ids      = make(map[string]int)
		accepted int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var info PairInfo
			status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", spec, &info)
			mu.Lock()
			defer mu.Unlock()
			ids[info.ID]++
			if status == http.StatusAccepted {
				accepted++
			} else if status != http.StatusOK {
				t.Errorf("load status = %d", status)
			}
		}()
	}
	wg.Wait()
	if len(ids) != 1 {
		t.Fatalf("concurrent loads derived %d distinct IDs: %v", len(ids), ids)
	}
	if accepted != 1 {
		t.Errorf("%d loads reported 202 Accepted, want exactly 1 (the creator)", accepted)
	}
	if got := s.reg.Builds(); got != 1 {
		t.Fatalf("Builds() = %d after %d concurrent loads of one spec, want 1", got, clients)
	}

	var id string
	for k := range ids {
		id = k
	}
	p, ok := s.reg.Get(id)
	if !ok {
		t.Fatal("pair vanished")
	}
	close(release)
	<-p.Done()
	var info PairInfo
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/pairs/"+id, "", &info); status != 200 || info.Status != StatusReady {
		t.Fatalf("after build: %d %+v", status, info)
	}
	// Queries hit the one shared substrate with no rebuild.
	var q QueryResponse
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/"+id+"/query", `{"uri":"w:Restaurant1"}`, &q); status != 200 || len(q.Candidates) == 0 {
		t.Fatalf("query after singleflight build = %d %+v", status, q)
	}
	if got := s.reg.Builds(); got != 1 {
		t.Errorf("Builds() = %d after queries, want still 1 — a query must never rebuild", got)
	}

	// A different spec is a different pair: it gets its own build.
	var other PairInfo
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", `{"e1":"third.nt","e2":"fourth.nt"}`, &other); status != http.StatusAccepted {
		t.Fatalf("second spec load = %d", status)
	}
	if other.ID == id {
		t.Error("distinct specs derived the same ID")
	}
	if got := s.reg.Builds(); got != 2 {
		t.Errorf("Builds() = %d after a second spec, want 2", got)
	}
}

func TestBuildFailureAndDelete(t *testing.T) {
	s := New(quietOptions())
	s.reg.buildPair = func(ctx context.Context, _ LoadPairRequest) (*core.Substrate, buildReport, error) {
		return nil, buildReport{}, errors.New("synthetic parse failure")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var info PairInfo
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", `{"id":"bad","e1":"a.nt","e2":"b.nt"}`, &info); status != http.StatusAccepted {
		t.Fatalf("load status = %d", status)
	}
	p, _ := s.reg.Get("bad")
	<-p.Done()
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/pairs/bad", "", &info); status != 200 || info.Status != StatusFailed || info.Error == "" {
		t.Fatalf("failed pair info = %d %+v", status, info)
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/bad/query", `{"uri":"x"}`); status != 500 || code != CodePairFailed {
		t.Errorf("query on failed pair = %d %q, want 500 %q", status, code, CodePairFailed)
	}
	if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/pairs/bad", "", nil); status != http.StatusNoContent {
		t.Errorf("delete = %d", status)
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/bad/query", `{"uri":"x"}`); status != 404 || code != CodePairNotFound {
		t.Errorf("query after delete = %d %q", status, code)
	}
}

// TestQueryOnBuildingPair asserts the not-ready error while a build is in
// flight, and that deleting the pair aborts the build's context.
func TestQueryOnBuildingPair(t *testing.T) {
	s := New(quietOptions())
	aborted := make(chan error, 1)
	s.reg.buildPair = func(ctx context.Context, _ LoadPairRequest) (*core.Substrate, buildReport, error) {
		<-ctx.Done() // park until delete/shutdown aborts us
		aborted <- ctx.Err()
		return nil, buildReport{}, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var info PairInfo
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs", `{"id":"slow","e1":"a.nt","e2":"b.nt"}`, &info); status != http.StatusAccepted || info.Status != StatusBuilding {
		t.Fatalf("load = %d %+v", status, info)
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/slow/query", `{"uri":"x"}`); status != 409 || code != CodePairNotReady {
		t.Errorf("query while building = %d %q, want 409 %q", status, code, CodePairNotReady)
	}
	if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/pairs/slow", "", nil); status != http.StatusNoContent {
		t.Fatalf("delete while building = %d", status)
	}
	select {
	case err := <-aborted:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("build abort err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delete did not abort the in-flight build")
	}
}

// TestQueryDeadlineMidQuery parks an in-flight query past its deadline and
// asserts the context abort surfaces as 504 deadline_exceeded — and that the
// shared substrate stays fully usable afterwards (the failure poisons
// nothing).
func TestQueryDeadlineMidQuery(t *testing.T) {
	s := New(quietOptions())
	sub := figure1Substrate(t)
	if _, err := s.reg.AddSubstrate("fig1", LoadPairRequest{E1: "mem:wd", E2: "mem:dbp"}, sub); err != nil {
		t.Fatal(err)
	}
	hold, entered := parkQueries(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		code   string
	}
	got := make(chan result, 1)
	go func() {
		var env ErrorEnvelope
		status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", `{"uri":"w:Restaurant1","timeout_ms":20}`, &env)
		got <- result{status, env.Error.Code}
	}()
	<-entered // the request holds its (already ticking) 20ms deadline
	time.Sleep(50 * time.Millisecond)
	close(hold) // release: QueryEntity now observes the expired context
	r := <-got
	if r.status != http.StatusGatewayTimeout || r.code != CodeDeadlineExceeded {
		t.Fatalf("expired query = %d %q, want 504 %q", r.status, r.code, CodeDeadlineExceeded)
	}

	// The same substrate, addressed through a second server sharing the
	// registry (no hold hook), answers normally: the aborted request left no
	// damaged state behind.
	s2 := New(quietOptions())
	s2.reg = s.reg
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var q QueryResponse
	if status := doJSON(t, http.MethodPost, ts2.URL+"/v1/pairs/fig1/query", `{"uri":"w:Restaurant1"}`, &q); status != 200 || len(q.Candidates) == 0 {
		t.Fatalf("query after deadline abort = %d %+v, want candidates", status, q)
	}
}

// TestGracefulShutdownDrain starts a real listener, parks a query in flight,
// and asserts Shutdown (a) aborts the in-flight build immediately, (b) waits
// for the parked query, and (c) completes cleanly once the query finishes.
func TestGracefulShutdownDrain(t *testing.T) {
	s := New(quietOptions())
	if _, err := s.reg.AddSubstrate("fig1", LoadPairRequest{E1: "mem:wd", E2: "mem:dbp"}, figure1Substrate(t)); err != nil {
		t.Fatal(err)
	}
	buildAborted := make(chan struct{})
	s.reg.buildPair = func(ctx context.Context, _ LoadPairRequest) (*core.Substrate, buildReport, error) {
		<-ctx.Done()
		close(buildAborted)
		return nil, buildReport{}, ctx.Err()
	}
	hold, entered := parkQueries(s)

	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	// One pair forever building: shutdown must abort it rather than drain it.
	if status := doJSON(t, http.MethodPost, base+"/v1/pairs", `{"id":"slow","e1":"a.nt","e2":"b.nt"}`, nil); status != http.StatusAccepted {
		t.Fatalf("load = %d", status)
	}

	type result struct {
		status     int
		candidates int
	}
	got := make(chan result, 1)
	go func() {
		var q QueryResponse
		status := doJSON(t, http.MethodPost, base+"/v1/pairs/fig1/query", `{"uri":"w:Restaurant1"}`, &q)
		got <- result{status, len(q.Candidates)}
	}()
	<-entered // the query is in flight inside the handler

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// The build must be aborted promptly, while the parked query keeps
	// Shutdown from returning.
	select {
	case <-buildAborted:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not abort the in-flight build")
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v while a query was still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	if s.ready.Load() {
		t.Error("server still reports ready while draining")
	}

	close(hold) // release the parked query
	r := <-got
	if r.status != http.StatusOK || r.candidates == 0 {
		t.Errorf("drained query = %+v, want a 200 with candidates", r)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown = %v, want clean drain", err)
	}
	p, _ := s.reg.Get("slow")
	<-p.Done()
	if info := s.reg.Info(p); info.Status != StatusFailed {
		t.Errorf("aborted build status = %q, want %q", info.Status, StatusFailed)
	}
}

// TestHandlerPanicIsContained makes one query panic inside its handler, with
// the pair acquired: the request is answered 500 internal, the reference it
// held is given back, and the next query — same client, same connection pool
// — is answered by the same pair.
func TestHandlerPanicIsContained(t *testing.T) {
	s, ts := newTestServer(t)
	var panicked atomic.Bool
	s.beforeQuery = func() {
		if panicked.CompareAndSwap(false, true) {
			panic("boom")
		}
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", `{"uri":"w:Restaurant1"}`); status != 500 || code != CodeInternal {
		t.Fatalf("panicking query = %d %q, want 500 %q", status, code, CodeInternal)
	}
	p, _ := s.reg.Get("fig1")
	if refs := p.refs.Load(); refs != 1 {
		t.Errorf("pair holds %d references after the panic, want the registry's 1", refs)
	}
	var q QueryResponse
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/pairs/fig1/query", `{"uri":"w:Restaurant1"}`, &q); status != 200 || len(q.Candidates) == 0 {
		t.Fatalf("query after the panic = %d %+v, want candidates", status, q)
	}
}

// replayAllocs counts the allocations of one replay through the handler of a
// server logging at level: request, routing, kernel, encoding and the
// recorder included.
func replayAllocs(t *testing.T, level slog.Level) float64 {
	t.Helper()
	s := New(Options{Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: level}))})
	if _, err := s.reg.AddSubstrate("fig1", LoadPairRequest{E1: "mem:wd", E2: "mem:dbp", Format: "nt"}, figure1Substrate(t)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	return testing.AllocsPerRun(100, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/pairs/fig1/query", strings.NewReader(`{"uri":"w:Restaurant1"}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("replay status %d: %s", rec.Code, rec.Body)
		}
	})
}

// Under minoanerd -quiet (Warn) the access log line is not built: a replay
// through the handler allocates a pinned number of times, fewer than when
// the line is logged. It was 44, as logged, while the line's arguments were
// evaluated at every level.
func TestQuietReplayAllocations(t *testing.T) {
	const pinned = 40
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	quiet, logged := replayAllocs(t, slog.LevelWarn), replayAllocs(t, slog.LevelInfo)
	t.Logf("quiet %v, logged %v", quiet, logged)
	if quiet != pinned {
		t.Errorf("a quiet replay allocates %v times, pinned at %d: update the pin if the change is intended", quiet, pinned)
	}
	if quiet >= logged {
		t.Errorf("a quiet replay allocates %v times, a logged one %v: the access log is built while not logged", quiet, logged)
	}
}
