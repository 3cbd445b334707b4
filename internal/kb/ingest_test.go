package kb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
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
		out = append(out, "rel "+k.Schema().Pred(preds[j])+" -> "+strconv.Itoa(int(objs[j])))
	}
	attrs, vals := k.AttributeColumns(id)
	for j := range attrs {
		out = append(out, "attr "+k.Schema().Attr(attrs[j])+" = "+k.Schema().Value(vals[j]))
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

// edgeFixture holds what ingestFixture does not: blank and whitespace-only
// lines, indented comments, CRLF and lone-CR line ends, a forward reference
// to a subject described further down, and a last line without a newline.
const edgeFixture = "\n  \n<e:x> <linked> <e:z> .\r\n   # indented comment\n" +
	"<e:x> <label> \"X \\u00e9t\\u00e9\\n\\\"q\\\"\" .\r\n\t<e:y> <label> \"Why\" .\r\r\n" +
	"<e:y> <seeAlso> <http://nowhere.example/y> .\n<e:z> <label> \"Zed\" ."

// tsvFixture is edgeFixture's TSV counterpart: objects naming a subject
// become relations, the others literals, and bad rows are skipped.
const tsvFixture = "#c\n\nx\tlinked\tz\r\nx\tlabel\tX one\r\ny\tlabel\tWhy x\n" +
	"bad row\n\tp\tq\ny\tseeAlso\thttp://nowhere.example/y\nz\tlabel\t\nz\tlinked\tx"

// generatedSource writes two megabytes of statements, so that the default
// chunk size cuts it too: subjects that come back, references to subjects
// described megabytes later and to URIs nobody describes, blank nodes,
// escaped and non-ASCII literals, comments, blank lines, CRLF line ends and
// malformed lines (the first of them on line bad).
func generatedSource(tsv bool) (src string, bad int) {
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	line := func(subj, pred, obj string, uri bool) {
		switch {
		case tsv:
			fmt.Fprintf(&sb, "%s\t%s\t%s", subj, pred, obj)
		case uri && strings.HasPrefix(obj, "_:"):
			fmt.Fprintf(&sb, "<%s> <%s> %s .", subj, pred, obj)
		case uri:
			fmt.Fprintf(&sb, "<%s> <%s> <%s> .", subj, pred, obj)
		default:
			fmt.Fprintf(&sb, "<%s> <%s> %s .", subj, pred, quoteLiteral(obj))
		}
		if rng.Intn(7) == 0 {
			sb.WriteByte('\r')
		}
		sb.WriteByte('\n')
	}
	lines := 0
	for i := 0; sb.Len() < 2<<20; i++ {
		subj := fmt.Sprintf("e:%d", i/4)
		if i%97 == 0 {
			subj = fmt.Sprintf("e:%d", rng.Intn(i/4+1)) // a subject that comes back
		}
		switch k := rng.Intn(40); {
		case k < 3:
			line(subj, "linked", fmt.Sprintf("e:%d", i/4+rng.Intn(40000)), true)
		case k < 5:
			line(subj, "seeAlso", fmt.Sprintf("http://nowhere.example/%d", rng.Intn(3000)), true)
		case k == 5:
			line(subj, "linked", fmt.Sprintf("_:b%d", rng.Intn(50)), true)
		case k == 6:
			sb.WriteString("# a comment\n\n")
			lines++
		case k == 7:
			if bad == 0 && sb.Len() > 1<<20 {
				bad = lines + 1
			}
			if bad != 0 {
				sb.WriteString("malformed\tline\n")
			} else {
				sb.WriteString("# not yet malformed\n")
			}
		default:
			line(subj, fmt.Sprintf("p%d", rng.Intn(60)), fmt.Sprintf("Value %d of Entity-%d \"q\" Café x%d\t%d",
				rng.Intn(20000), i/4, rng.Intn(50), rng.Intn(9)), false)
		}
		lines++
	}
	for i := 0; i < 50; i++ {
		line(fmt.Sprintf("_:b%d", i), "label", fmt.Sprintf("Blank %d", i), false)
	}
	return sb.String(), bad
}

// diffIDs describes the first difference between the dictionaries of two
// KBs built from one input — the token and schema dictionaries string by
// string, then each entity's token IDs and ValueIDs — or returns "".
func diffIDs(got, want *KB) string {
	gd, wd := got.TokenDict(), want.TokenDict()
	if gd.Len() != wd.Len() {
		return fmt.Sprintf("%d tokens, want %d", gd.Len(), wd.Len())
	}
	for i := 0; i < wd.Len(); i++ {
		if g, w := gd.TokenString(TokenID(i)), wd.TokenString(TokenID(i)); g != w {
			return fmt.Sprintf("token %d is %q, want %q", i, g, w)
		}
	}
	gs, ws := got.Schema(), want.Schema()
	if gs.Values() != ws.Values() || gs.Preds() != ws.Preds() || gs.Attrs() != ws.Attrs() {
		return fmt.Sprintf("schema %d/%d/%d, want %d/%d/%d", gs.Values(), gs.Preds(), gs.Attrs(), ws.Values(), ws.Preds(), ws.Attrs())
	}
	for i := 0; i < ws.Values(); i++ {
		if g, w := gs.Value(ValueID(i)), ws.Value(ValueID(i)); g != w {
			return fmt.Sprintf("value %d is %q, want %q", i, g, w)
		}
	}
	for i := 0; i < want.Len(); i++ {
		id := EntityID(i)
		if g, w := got.Entity(id).TokenIDs(), want.Entity(id).TokenIDs(); !slices.Equal(g, w) {
			return fmt.Sprintf("entity %d: token IDs %v, want %v", i, g, w)
		}
		_, g := got.AttributeColumns(id)
		_, w := want.AttributeColumns(id)
		if !slices.Equal(g, w) {
			return fmt.Sprintf("entity %d: ValueIDs %v, want %v", i, g, w)
		}
	}
	return ""
}

// diffParts describes the first difference between the token CSR and the
// insertion-order statement tables of two KBs whose dictionaries are equal
// ID for ID (diffIDs), or returns "".
func diffParts(got, want *KB) string {
	g, w := got.SnapshotParts(), want.SnapshotParts()
	switch {
	case !slices.Equal(g.TokenOff, w.TokenOff) || !slices.Equal(g.Tokens, w.Tokens):
		return "token CSR differs"
	case !slices.Equal(g.StmtAttrName, w.StmtAttrName):
		return "attribute statement table differs"
	case !slices.Equal(g.StmtRelPred, w.StmtRelPred) || !slices.Equal(g.StmtRelObj, w.StmtRelObj):
		return "relation statement tables differ"
	case g.StmtVals.Len() != w.StmtVals.Len():
		return fmt.Sprintf("%d statement values, want %d", g.StmtVals.Len(), w.StmtVals.Len())
	}
	for j := 0; j < w.StmtVals.Len(); j++ {
		if gv, wv := g.StmtVals.At(j), w.StmtVals.At(j); gv != wv {
			return fmt.Sprintf("statement value %d is %q, want %q", j, gv, wv)
		}
	}
	return ""
}

// ingestAt loads data with the chunked ingester at the given chunk size and
// GOMAXPROCS.
func ingestAt(data string, syn syntax, size, procs int) (*KB, int, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	b := NewBuilder("k")
	skipped, err := b.ingest(context.Background(), strings.NewReader(data), syn, size)
	if err != nil {
		return nil, skipped, err
	}
	return b.Build(), skipped, nil
}

// The chunked ingester, at every chunk size — a line per chunk, a few lines
// per chunk, 1 KB, the default, 1 MB — and at one, two and eight parsers,
// must build the KB a Builder fed statement by statement builds, with the
// same dictionaries ID for ID, the same token CSR and insertion-order
// statement tables, the same skipped count and the same first *ParseError.
// A merged chunk's arrays become the Builder's while the chunk goes back to
// the parsers, so this runs under the race detector too (make race-overlap).
func TestChunkedIngestEqualsSerial(t *testing.T) {
	gen, genBad := generatedSource(false)
	genTSV, _ := generatedSource(true)
	cases := []struct {
		name, data string
		syn        syntax
		badLine    int // strict: the line of the first *ParseError, or 0
	}{
		{"fixture", ingestFixture, syntax{}, 11},
		{"edges", edgeFixture, syntax{}, 0},
		{"generated", gen, syntax{}, genBad},
		{"tsv-fixture", tsvFixture, syntax{tsv: true, uriObjects: true}, 0},
		{"tsv-literals", tsvFixture, syntax{tsv: true}, 0},
		{"tsv-generated", genTSV, syntax{tsv: true, uriObjects: true}, 0},
	}
	for _, tc := range cases {
		for _, lenient := range []bool{true, false} {
			syn := tc.syn
			syn.lenient = lenient
			serial := NewBuilder("serial")
			wantSkipped, wantErr := readTerms(strings.NewReader(tc.data), syn, &stringSink{sink: serial}, chunkBytes)
			var want *KB
			if wantErr == nil {
				want = serial.Build()
				if !syn.tsv {
					ref, refSkipped, err := RefLoadNTriples("ref", strings.NewReader(tc.data), lenient)
					if err != nil || refSkipped != wantSkipped {
						t.Fatalf("%s: reference: %v, skipped %d, want %d", tc.name, err, refSkipped, wantSkipped)
					}
					if d := diffKB(want, ref); d != "" {
						t.Fatalf("%s: serial Builder against the reference: %s", tc.name, d)
					}
				}
			}
			var pe *ParseError
			if errors.As(wantErr, &pe) != (tc.badLine != 0 && !lenient) || pe != nil && pe.Line != tc.badLine {
				t.Fatalf("%s lenient=%t: serial error %v, want one at line %d", tc.name, lenient, wantErr, tc.badLine)
			}
			for _, size := range []int{1, 37, 1 << 10, chunkBytes, 1 << 20} {
				for _, procs := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/lenient=%t/size=%d/procs=%d", tc.name, lenient, size, procs)
					got, skipped, err := ingestAt(tc.data, syn, size, procs)
					if skipped != wantSkipped {
						t.Errorf("%s: skipped %d, want %d", name, skipped, wantSkipped)
					}
					if !reflect.DeepEqual(err, wantErr) {
						t.Errorf("%s: error %v, want %v", name, err, wantErr)
					}
					if err != nil || wantErr != nil {
						continue
					}
					if d := diffKB(got, want); d != "" {
						t.Errorf("%s: %s", name, d)
					} else if d := diffIDs(got, want); d != "" {
						t.Errorf("%s: %s", name, d)
					} else if d := diffParts(got, want); d != "" {
						t.Errorf("%s: %s", name, d)
					}
				}
			}
		}
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
		// The byte forms, through a chunk of the ingester.
		b, c := NewBuilder("k"), newChunk()
		c.addTerms([]byte("e"), []byte("p"), []byte(s), false)
		m := merger{b: b}
		if err := m.merge(c); err != nil {
			t.Fatal(err)
		}
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
