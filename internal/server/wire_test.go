package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/matching"
)

// TestQueryCandidateWireSchema pins the exact bytes of the shared candidate
// schema — the one wire format behind both `cmd/minoaner -query -json` and
// the /v1 query response. A diff here is a breaking schema change: bump the
// API version instead of editing the tags.
func TestQueryCandidateWireSchema(t *testing.T) {
	ms := []core.QueryMatch{
		{Candidate: 0, URI: "d:Restaurant2", Rule: matching.RuleRank, Score: 0.75, ValueSim: 0.5, NeighborSim: 0.25, Reciprocal: true},
		{Candidate: 1, URI: "d:JonnyLake", Rule: matching.RuleName, Score: 1, Reciprocal: true},
		{Candidate: 2, URI: "d:Berkshire", Rule: matching.RuleNone, Score: 0.125, ValueSim: 0.125},
	}
	// The CLI's encoder: two-space indent, trailing newline.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Candidates(ms)); err != nil {
		t.Fatal(err)
	}
	const pinned = `[
  {
    "uri": "d:Restaurant2",
    "rule": "R3",
    "score": 0.75,
    "value_sim": 0.5,
    "neighbor_sim": 0.25,
    "reciprocal": true
  },
  {
    "uri": "d:JonnyLake",
    "rule": "R1",
    "score": 1,
    "reciprocal": true
  },
  {
    "uri": "d:Berkshire",
    "rule": "none",
    "score": 0.125,
    "value_sim": 0.125,
    "reciprocal": false
  }
]
`
	if got := buf.String(); got != pinned {
		t.Errorf("candidate wire bytes drifted:\n--- got ---\n%s\n--- want ---\n%s", got, pinned)
	}

	// Round trip: the pinned bytes decode back to the identical value.
	var back []QueryCandidate
	if err := json.Unmarshal([]byte(pinned), &back); err != nil {
		t.Fatal(err)
	}
	if want := Candidates(ms); !reflect.DeepEqual(back, want) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", back, want)
	}
}

// TestCandidatesNeverNil pins the empty-ranking encoding: [] on the wire,
// never null.
func TestCandidatesNeverNil(t *testing.T) {
	b, err := json.Marshal(QueryResponse{Pair: "p", Candidates: Candidates(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"candidates":[]`)) {
		t.Errorf("empty ranking encodes as %s, want a [] candidates array", b)
	}
}

// TestQueryResponseRoundTrip round-trips the full /v1 query response body.
func TestQueryResponseRoundTrip(t *testing.T) {
	in := QueryResponse{
		Pair: "fig1",
		URI:  "w:Restaurant1",
		Candidates: []QueryCandidate{
			{URI: "d:Restaurant2", Rule: "R3", Score: 0.9, ValueSim: 0.4, NeighborSim: 0.5, Reciprocal: true},
		},
		ElapsedUS: 123.5,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out QueryResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("query response round trip: got %+v, want %+v", out, in)
	}
}

// TestErrorEnvelopeShape pins the uniform error body.
func TestErrorEnvelopeShape(t *testing.T) {
	b, err := json.Marshal(ErrorEnvelope{Error: ErrorBody{Code: CodePairNotFound, Message: "no pair"}})
	if err != nil {
		t.Fatal(err)
	}
	const pinned = `{"error":{"code":"pair_not_found","message":"no pair"}}`
	if string(b) != pinned {
		t.Errorf("error envelope = %s, want %s", b, pinned)
	}
}

// TestDeriveIDDeterminism pins that identical specs coalesce and different
// specs split — the property the ID-less singleflight rests on.
func TestDeriveIDDeterminism(t *testing.T) {
	a := LoadPairRequest{E1: "x.nt", E2: "y.nt", Format: "nt"}
	if deriveID(a) != deriveID(a) {
		t.Error("deriveID is not deterministic")
	}
	b := a
	b.E2 = "z.nt"
	if deriveID(a) == deriveID(b) {
		t.Error("different specs derived the same ID")
	}
	c := a
	c.Config = &PairConfig{TopK: 5}
	if deriveID(a) == deriveID(c) {
		t.Error("different configs derived the same ID")
	}
	// IDs derived before the load request lost its "stream" and "prewarm"
	// fields, which clients may still hold.
	for want, spec := range map[string]LoadPairRequest{
		"p-4d667363937d": {E1: "e1.nt", E2: "e2.nt", Format: "nt"},
		"p-185003f4f06c": {E1: "e1.nt", E2: "e2.nt", Format: "nt", Config: &PairConfig{TopK: 5, Theta: 0.5, Workers: 2}},
		"p-d06bebfa90ba": {Snapshot: "pair.snap"},
	} {
		if got := deriveID(spec); got != want {
			t.Errorf("deriveID(%+v) = %s, want %s as before", spec, got, want)
		}
	}
}
