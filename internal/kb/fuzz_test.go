package kb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
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
// report the same first error, at a chunk size of a few bytes as at the
// default. The KB the ingester builds from the input, at the default chunk
// size and at tiny ones, must be the one the reference Builder builds.
func FuzzReadNTriples(f *testing.F) {
	f.Add([]byte(ingestFixture))
	f.Add([]byte(edgeFixture))
	f.Fuzz(checkReaders)
}

// A line longer than the scanner's first buffer (as a fuzz seed it would
// have the fuzzer spend its time minimizing 70 KB inputs).
func TestReadLongLine(t *testing.T) {
	checkReaders(t, []byte("<a> <p> \""+strings.Repeat("long Value ", 7000)+"\" .\n<a> <p> <a> .\n"))
}

// A line of maxLine bytes, its newline included, is read; one byte more is
// refused with bufio.ErrTooLong, by the readers and the loaders alike, as
// the reference's bufio.Scanner refuses it.
func TestReadLineTooLong(t *testing.T) {
	head := "<a> <p> \"short\" .\n"
	literal := func(n int) string { return "<a> <p> \"" + strings.Repeat("x", n-len(`<a> <p> "" .`)-1) + "\" .\n" }
	fits, long := head+literal(maxLine), head+literal(maxLine+1)
	if _, err := refReadNTriples(&recorder{}, strings.NewReader(fits), false); err != nil {
		t.Fatalf("reference refuses a line of maxLine bytes: %v", err)
	}
	if _, err := refReadNTriples(&recorder{}, strings.NewReader(long), false); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("reference reads a line of maxLine+1 bytes: %v", err)
	}
	var rec recorder
	if _, err := ReadNTriples(&rec, strings.NewReader(fits), false); err != nil || len(rec.calls) != 2 {
		t.Fatalf("ReadNTriples of a line of maxLine bytes: %v, %d statements", err, len(rec.calls))
	}
	if k, _, err := LoadNTriples("k", strings.NewReader(fits), false); err != nil || k.Triples() != 2 {
		t.Fatalf("LoadNTriples of a line of maxLine bytes: %v", err)
	}
	if _, err := ReadNTriples(&recorder{}, strings.NewReader(long), false); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("ReadNTriples: %v, want bufio.ErrTooLong", err)
	}
	for _, procs := range []int{1, 2} {
		if _, _, err := ingestAt(long, syntax{lenient: true}, chunkBytes, procs); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("n-triples, procs=%d: %v, want bufio.ErrTooLong", procs, err)
		}
		if _, _, err := ingestAt(long, syntax{tsv: true}, chunkBytes, procs); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("tsv, procs=%d: %v, want bufio.ErrTooLong", procs, err)
		}
	}
}

func checkReaders(t *testing.T, data []byte) {
	for _, lenient := range []bool{true, false} {
		var got, want, small recorder
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
		syn := syntax{lenient: lenient}
		smallSkipped, smallErr := readTerms(bytes.NewReader(data), syn, &stringSink{sink: &small}, 3)
		if !slices.Equal(small.calls, got.calls) || smallSkipped != skipped || !reflect.DeepEqual(smallErr, err) {
			t.Fatalf("lenient=%t: 3-byte chunks read %q, skipped %d, error %v; want %q, %d, %v",
				lenient, small.calls, smallSkipped, smallErr, got.calls, skipped, err)
		}
		k, kSkipped, kErr := ingestAt(string(data), syn, chunkBytes, 2)
		if kSkipped != skipped || !reflect.DeepEqual(kErr, err) {
			t.Fatalf("lenient=%t: load skipped %d, error %v; reader %d, %v", lenient, kSkipped, kErr, skipped, err)
		}
		for _, size := range []int{1, 5} {
			ks, ksSkipped, ksErr := ingestAt(string(data), syn, size, 2)
			if ksSkipped != kSkipped || !reflect.DeepEqual(ksErr, kErr) {
				t.Fatalf("lenient=%t, %d-byte chunks: skipped %d, error %v; want %d, %v", lenient, size, ksSkipped, ksErr, kSkipped, kErr)
			}
			if kErr != nil {
				continue
			}
			if d := diffKB(ks, k); d != "" {
				t.Fatalf("lenient=%t, %d-byte chunks: %s", lenient, size, d)
			}
			if d := diffIDs(ks, k); d != "" {
				t.Fatalf("lenient=%t, %d-byte chunks: %s", lenient, size, d)
			}
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
