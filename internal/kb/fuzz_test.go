package kb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// recorder is a TripleSink that writes down what it is fed.
type recorder struct {
	uris  []string
	calls []string
}

func (r *recorder) AddEntity(uri string) EntityID {
	if i := slices.Index(r.uris, uri); i >= 0 {
		return EntityID(i)
	}
	r.uris = append(r.uris, uri)
	return EntityID(len(r.uris) - 1)
}

func (r *recorder) AddLiteral(id EntityID, attribute, value string) {
	r.calls = append(r.calls, fmt.Sprintf("%d %q = %q", id, attribute, value))
}

func (r *recorder) AddObject(id EntityID, predicate, objectURI string) {
	r.calls = append(r.calls, fmt.Sprintf("%d %q -> %q", id, predicate, objectURI))
}

// FuzzReadNTriples feeds arbitrary bytes to the byte-level reader and to the
// string parser it replaced: neither may panic, and in lenient and in strict
// mode both must deliver the same terms, skip the same number of lines and
// report the same first error. The KB the ingester builds from the input
// must be the one the reference Builder builds.
func FuzzReadNTriples(f *testing.F) {
	f.Add([]byte(ingestFixture))
	f.Fuzz(checkReaders)
}

// A line longer than the scanner's first buffer (as a fuzz seed it would
// have the fuzzer spend its time minimizing 70 KB inputs).
func TestReadLongLine(t *testing.T) {
	checkReaders(t, []byte("<a> <p> \""+strings.Repeat("long Value ", 7000)+"\" .\n<a> <p> <a> .\n"))
}

func checkReaders(t *testing.T, data []byte) {
	for _, lenient := range []bool{true, false} {
		var got, want recorder
		skipped, err := ReadNTriples(&got, bytes.NewReader(data), lenient)
		wantSkipped, wantErr := refReadNTriples(&want, bytes.NewReader(data), lenient)
		if !slices.Equal(got.uris, want.uris) || !slices.Equal(got.calls, want.calls) {
			t.Fatalf("lenient=%t: terms differ:\n got %q\nwant %q", lenient, got.calls, want.calls)
		}
		if skipped != wantSkipped {
			t.Fatalf("lenient=%t: skipped %d lines, reference %d", lenient, skipped, wantSkipped)
		}
		var pe, wantPE *ParseError
		if errors.As(err, &pe) != errors.As(wantErr, &wantPE) || (err == nil) != (wantErr == nil) {
			t.Fatalf("lenient=%t: error %v, reference %v", lenient, err, wantErr)
		}
		if pe != nil && (pe.Line != wantPE.Line || pe.Text != wantPE.Text || pe.Err != wantPE.Err) {
			t.Fatalf("lenient=%t: error %v, reference %v", lenient, pe, wantPE)
		}
	}
	k, _, err := LoadNTriples("k", bytes.NewReader(data), true)
	ref, _, refErr := RefLoadNTriples("ref", bytes.NewReader(data), true)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("load error %v, reference %v", err, refErr)
	}
	if err == nil {
		if d := diffKB(k, ref); d != "" {
			t.Fatal(d)
		}
	}
}
