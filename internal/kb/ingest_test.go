package kb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// diffKB describes the first difference between two KBs that must hold the
// same knowledge — equal entity order, URIs, Attrs and Relations (statement
// order included), token strings, triple count, and equal column spans read
// as strings (IDs may be assigned in a different order) — or returns "".
func diffKB(got, want *KB) string {
	if got.Len() != want.Len() || got.Triples() != want.Triples() {
		return fmt.Sprintf("got %v, want %v", got, want)
	}
	for i := 0; i < want.Len(); i++ {
		id := EntityID(i)
		g, w := got.Entity(id), want.Entity(id)
		if g.URI != w.URI || got.URI(id) != w.URI || got.Lookup(w.URI) != id {
			return fmt.Sprintf("entity %d: URI %q (Lookup %d), want %q", i, g.URI, got.Lookup(w.URI), w.URI)
		}
		if !slices.Equal(g.Attrs, w.Attrs) {
			return fmt.Sprintf("entity %s: Attrs %v, want %v", w.URI, g.Attrs, w.Attrs)
		}
		if !slices.Equal(g.Relations, w.Relations) {
			return fmt.Sprintf("entity %s: Relations %v, want %v", w.URI, g.Relations, w.Relations)
		}
		if gt, wt := g.Tokens(), w.Tokens(); !slices.Equal(gt, wt) {
			return fmt.Sprintf("entity %s: tokens %v, want %v", w.URI, gt, wt)
		}
		if gc, wc := columnStrings(got, id), columnStrings(want, id); !slices.Equal(gc, wc) {
			return fmt.Sprintf("entity %s: columns %v, want %v", w.URI, gc, wc)
		}
		if err := checkSpans(got, id); err != "" {
			return fmt.Sprintf("entity %s: %s", w.URI, err)
		}
	}
	return ""
}

// columnStrings renders entity id's two column spans as a sorted multiset of
// strings.
func columnStrings(k *KB, id EntityID) []string {
	var out []string
	preds, objs := k.RelationColumns(id)
	for j := range preds {
		out = append(out, fmt.Sprintf("rel %s -> %d", k.Schema().Pred(preds[j]), objs[j]))
	}
	attrs, vals := k.AttributeColumns(id)
	for j := range attrs {
		out = append(out, fmt.Sprintf("attr %s = %q", k.Schema().Attr(attrs[j]), k.Schema().Value(vals[j])))
	}
	slices.Sort(out)
	return out
}

// checkSpans verifies the order invariants every later stage relies on.
func checkSpans(k *KB, id EntityID) string {
	d := k.Entity(id)
	toks := d.Tokens()
	if !slices.IsSorted(toks) || len(slices.Compact(slices.Clone(toks))) != len(toks) {
		return fmt.Sprintf("tokens not sorted and distinct: %v", toks)
	}
	preds, objs := k.RelationColumns(id)
	for j := 1; j < len(preds); j++ {
		if preds[j-1] > preds[j] || preds[j-1] == preds[j] && objs[j-1] > objs[j] {
			return "relation span not sorted by (PredID, Object)"
		}
	}
	attrs, vals := k.AttributeColumns(id)
	for j := 1; j < len(attrs); j++ {
		if attrs[j-1] > attrs[j] || attrs[j-1] == attrs[j] && vals[j-1] > vals[j] {
			return "attribute span not sorted by (AttrID, ValueID)"
		}
	}
	return ""
}

// ingestFixture exercises every ingest edge: subjects that come back after
// other subjects, backward and forward references, an object URI that is
// never described (a literal, in place), a self reference, duplicate tokens
// and values, a literal with escapes, a blank node on both sides, CRLF, and
// a malformed line for the lenient counter.
const ingestFixture = "# fixture\r\n" + `<e:a> <label> "Alpha One" .
<e:a> <linked> <e:b> .
<e:a> <seeAlso> <http://nowhere.example/alpha-page> .
<e:a> <label> "after the demoted one" .
<e:b> <label> "Beta two ALPHA" .
<e:b> <linked> <e:a> .
<e:b> <linked> <e:b> .
<e:c> <label> "gamma one" .
<e:c> <label> "gamma one" .
malformed line
<e:a> <note> "a comes back \"quoted\" café Ünï" .
<e:c> <linked> _:blank .
_:blank <label> "Blank" .
<e:c> <linked> <e:a> .
`

func TestIngestMatchesReference(t *testing.T) {
	want, wantSkipped, err := RefLoadNTriples("ref", strings.NewReader(ingestFixture), true)
	if err != nil {
		t.Fatal(err)
	}
	k, skipped, err := LoadNTriples("new", strings.NewReader(ingestFixture), true)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != wantSkipped || skipped != 1 {
		t.Errorf("skipped = %d, reference %d, want 1", skipped, wantSkipped)
	}
	if d := diffKB(k, want); d != "" {
		t.Error(d)
	}
	// The demoted URI sits where it arrived, between the two labels.
	a := k.Entity(k.Lookup("e:a"))
	if len(a.Attrs) != 4 || a.Attrs[1].Attribute != "seeAlso" || !a.HasToken("nowhere") {
		t.Errorf("demoted object URI not a literal in place: %+v", a.Attrs)
	}
}

// A forward reference resolves at Build; a URI nobody describes becomes a
// tokenized literal; both count as triples.
func TestBuilderSettlesObjectsAtBuild(t *testing.T) {
	b := NewBuilder("fw")
	a := b.AddEntity("e:a")
	b.AddObject(a, "linked", "e:later")
	b.AddObject(a, "seeAlso", "e:never")
	b.AddEntity("e:later")
	k := b.Build()
	d := k.Entity(a)
	if len(d.Relations) != 1 || d.Relations[0].Predicate != "linked" || d.Relations[0].Object != k.Lookup("e:later") {
		t.Errorf("forward reference not resolved: %+v", d.Relations)
	}
	if len(d.Attrs) != 1 || d.Attrs[0] != (AttributeValue{"seeAlso", "e:never"}) || !d.HasToken("never") {
		t.Errorf("undescribed URI not a tokenized literal: %+v", d.Attrs)
	}
	if k.Triples() != 2 {
		t.Errorf("triples = %d, want 2", k.Triples())
	}
}

// The value stage hands over a batch every valueBatchBytes: a load larger
// than a few batches must give the same KB piped (GOMAXPROCS 2) and inline
// (GOMAXPROCS 1), and the same dictionaries ID for ID.
func TestIngestPipedEqualsInline(t *testing.T) {
	var src bytes.Buffer
	rng := rand.New(rand.NewSource(7))
	for i := 0; src.Len() < 5*valueBatchBytes; i++ {
		fmt.Fprintf(&src, "<e:%d> <p%d> \"Value %d of Entity-%d x%d\" .\n", i%997, i%7, rng.Intn(5000), i%997, rng.Intn(50))
		if i%5 == 0 {
			fmt.Fprintf(&src, "<e:%d> <link> <e:%d> .\n", i%997, rng.Intn(1200))
		}
	}
	load := func(procs int) *KB {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		k, _, err := LoadNTriples("k", bytes.NewReader(src.Bytes()), false)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	inline, piped := load(1), load(2)
	if d := diffKB(piped, inline); d != "" {
		t.Fatal(d)
	}
	for i := 0; i < inline.Len(); i++ {
		if !slices.Equal(piped.Entity(EntityID(i)).TokenIDs(), inline.Entity(EntityID(i)).TokenIDs()) {
			t.Fatalf("entity %d: token IDs differ between piped and inline ingest", i)
		}
		_, v1 := piped.AttributeColumns(EntityID(i))
		_, v2 := inline.AttributeColumns(EntityID(i))
		if !slices.Equal(v1, v2) {
			t.Fatalf("entity %d: ValueIDs differ between piped and inline ingest", i)
		}
	}
	want, _, err := RefLoadNTriples("ref", bytes.NewReader(src.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffKB(piped, want); d != "" {
		t.Fatal(d)
	}
}

// A strict load that fails mid-file must still stop its value stage.
func TestIngestStrictErrorJoinsValueStage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var src bytes.Buffer
	for i := 0; src.Len() < 2*valueBatchBytes; i++ {
		fmt.Fprintf(&src, "<e:%d> <p> \"some value number %d\" .\n", i, i)
	}
	lines := bytes.Count(src.Bytes(), []byte{'\n'})
	src.WriteString("broken\n")
	_, _, err := LoadNTriples("k", &src, false)
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != lines+1 {
		t.Fatalf("err = %v, want a *ParseError at line %d", err, lines+1)
	}
}

func TestLoadTSVMatchesBuilder(t *testing.T) {
	const tsv = "a\tp\tb\nb\tp\tv w\n#c\nbad row\n\tp\tx\nb\tq\t\n"
	k, skipped, err := LoadTSV("tsv", strings.NewReader(tsv), true)
	if err != nil {
		t.Fatal(err)
	}
	b := newRefBuilder("ref")
	ea, eb := b.AddEntity("a"), b.AddEntity("b")
	b.AddObject(ea, "p", "b")
	b.AddObject(eb, "p", "v w")
	b.AddObject(eb, "q", "")
	if d := diffKB(k, b.Build()); d != "" || skipped != 2 {
		t.Errorf("skipped %d (want 2); %s", skipped, d)
	}
}

// Two Builders over one Interner and one Schema live in one ID space.
func TestBuildersShareDictionaries(t *testing.T) {
	dict, sch := NewInterner(), NewSchema()
	b1 := NewBuilderWithDicts("s1", dict, sch)
	b1.AddLiteral(b1.AddEntity("a"), "label", "shared token")
	b2 := NewBuilderWithDicts("s2", dict, sch)
	b2.AddLiteral(b2.AddEntity("b"), "label", "token  SHARED")
	k1, k2 := b1.Build(), b2.Build()
	if k1.TokenDict() != k2.TokenDict() || k1.Schema() != k2.Schema() {
		t.Fatal("dictionaries not shared")
	}
	if !reflect.DeepEqual(k1.Entity(0).TokenIDs(), k2.Entity(0).TokenIDs()) {
		t.Errorf("token IDs differ: %v vs %v", k1.Entity(0).TokenIDs(), k2.Entity(0).TokenIDs())
	}
}

// The text core: the string forms the query path calls, the byte forms the
// ingester calls, and the reference must agree on any input, valid UTF-8 or
// not.
func TestTextCoreAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("aZ09 -_.,İıſẞßǅΣςσÅÉéñ中文١٢٣ⅫⓐⒶ  �\U0001d400\U00010400")
	tok := NewTokenizer()
	for n := 0; n < 3000; n++ {
		var sb strings.Builder
		for l := rng.Intn(24); l > 0; l-- {
			switch rng.Intn(10) {
			case 0:
				sb.WriteByte(byte(0x80 + rng.Intn(0x80))) // stray continuation or lead byte
			case 1:
				sb.WriteRune(rune(rng.Intn(utf8.MaxRune)))
			default:
				sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
			}
		}
		s := sb.String()
		want := refTokens(s)
		if got := tok.Tokens(s); !slices.Equal(got, want) {
			t.Fatalf("Tokens(%q) = %q, reference %q", s, got, want)
		}
		wantName := refNormalizeName(s)
		if got := NormalizeName(s); got != wantName {
			t.Fatalf("NormalizeName(%q) = %q, reference %q", s, got, wantName)
		}
		// The byte forms, through the ingester.
		b := NewBuilder("k")
		b.addTerms([]byte("e"), []byte("p"), []byte(s), false)
		k := b.Build()
		slices.Sort(want)
		if got := k.Entity(0).Tokens(); !slices.Equal(got, slices.Compact(want)) {
			t.Fatalf("ingested tokens of %q = %q, want %q", s, got, want)
		}
		if _, vals := k.AttributeColumns(0); k.Schema().Value(vals[0]) != wantName {
			t.Fatalf("ingested value of %q = %q, want %q", s, k.Schema().Value(vals[0]), wantName)
		}
	}
}
