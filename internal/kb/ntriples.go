package kb

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseError describes a malformed statement encountered while loading a KB.
type ParseError struct {
	Line int
	Text string
	Err  error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("kb: line %d: %v: %q", e.Line, e.Err, e.Text)
}

func (e *ParseError) Unwrap() error { return e.Err }

var (
	errMissingSubject   = fmt.Errorf("missing subject")
	errMissingPredicate = fmt.Errorf("missing predicate")
	errMissingObject    = fmt.Errorf("missing object")
	errUnterminated     = fmt.Errorf("unterminated term")
)

// TripleSink consumes raw (subject, predicate, object) statements as
// strings: ReadNTriples and ReadTSV feed one, at the price of one string per
// statement. The loaders feed a Builder through the chunked ingester.
type TripleSink interface {
	// AddEntity registers (or finds) the entity with the given URI.
	AddEntity(uri string) EntityID
	// AddLiteral attaches a literal attribute-value pair.
	AddLiteral(id EntityID, attribute, value string)
	// AddObject attaches a URI-position object that becomes a relation if
	// the URI names a described entity.
	AddObject(id EntityID, predicate, objectURI string)
}

// termSink is what the line parser feeds: the three terms of one statement
// as bytes that are only valid during the call. A chunk of the ingester
// implements it without making a string of any of them.
type termSink interface {
	addTerms(subj, pred, obj []byte, objIsURI bool)
}

// stringSink adapts a TripleSink: one string per statement, cut in three.
type stringSink struct {
	sink TripleSink
	buf  []byte
}

func (s *stringSink) addTerms(subj, pred, obj []byte, objIsURI bool) {
	s.buf = append(append(append(s.buf[:0], subj...), pred...), obj...)
	terms := string(s.buf)
	p, o := len(subj), len(subj)+len(pred)
	id := s.sink.AddEntity(terms[:p])
	if objIsURI {
		s.sink.AddObject(id, terms[p:o], terms[o:])
	} else {
		s.sink.AddLiteral(id, terms[p:o], terms[o:])
	}
}

// LoadNTriples reads a KB in N-Triples format:
//
//	<subject> <predicate> <object-uri> .
//	<subject> <predicate> "literal"^^<type> .
//
// Comments (#...) and blank lines are skipped. Malformed lines produce a
// *ParseError unless lenient is true, in which case they are counted and
// skipped. It returns the built KB and the number of skipped lines.
func LoadNTriples(name string, r io.Reader, lenient bool) (*KB, int, error) {
	return load(context.Background(), NewBuilder(name), r, syntax{lenient: lenient})
}

// StreamNTriples is LoadNTriples: there is one ingester, and it streams.
//
// Deprecated: call LoadNTriples.
func StreamNTriples(name string, r io.Reader, lenient bool) (*KB, int, error) {
	return LoadNTriples(name, r, lenient)
}

// LoadTSV reads a KB as tab-separated subject/predicate/object rows. Objects
// are treated as entity URIs when they appear elsewhere as subjects (resolved
// at Build time via AddObject) if uriObjects is true; otherwise every object
// is a literal. Returns the KB and the number of skipped malformed rows.
func LoadTSV(name string, r io.Reader, uriObjects bool) (*KB, int, error) {
	return load(context.Background(), NewBuilder(name), r, syntax{tsv: true, uriObjects: uriObjects})
}

// load ingests one input into b (see Builder.ingest) and builds the KB.
func load(ctx context.Context, b *Builder, r io.Reader, syn syntax) (*KB, int, error) {
	skipped, err := b.ingest(ctx, r, syn, chunkBytes)
	if err != nil {
		return nil, skipped, wrapLoadErr(b.name, err)
	}
	return b.Build(), skipped, nil
}

// LoadPair ingests the two KBs of a clean-clean ER pair from files, E1 then
// E2, into ONE token dictionary and ONE schema dictionary, both sized once
// from the two file sizes. The pair then lives in a single dense ID space:
// blocking takes its identity path instead of merging two dictionaries by
// string, and a snapshot stores one dictionary instead of three. format is
// "nt" (malformed lines are skipped when lenient, a *ParseError otherwise)
// or "tsv" (objects naming a described entity become relations). It returns
// the KBs and the skipped-line count of each file; ctx is observed while
// reading.
func LoadPair(ctx context.Context, path1, path2, format string, lenient bool) (k1, k2 *KB, skipped [2]int, err error) {
	if format != "nt" && format != "tsv" {
		return nil, nil, skipped, fmt.Errorf("unknown format %q (want nt or tsv)", format)
	}
	var files [2]*os.File
	var size int64
	for i, path := range []string{path1, path2} {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, skipped, err
		}
		defer f.Close()
		if st, err := f.Stat(); err == nil {
			size += st.Size()
		}
		files[i] = f
	}
	dict, schema := NewInterner(), NewSchema()
	dict.t.reserve(int(size / bytesPerToken))
	schema.vals.reserve(int(size / bytesPerValue))
	syn := syntax{lenient: lenient}
	if format == "tsv" {
		syn = syntax{tsv: true, uriObjects: true}
	}
	var kbs [2]*KB
	for i, f := range files {
		b := NewBuilderWithDicts(fmt.Sprintf("E%d", i+1), dict, schema)
		if kbs[i], skipped[i], err = load(ctx, b, f, syn); err != nil {
			return nil, nil, skipped, err
		}
	}
	return kbs[0], kbs[1], skipped, nil
}

// Input bytes per distinct token and per distinct normalized value that
// LoadPair sizes the shared dictionaries by. The generated pairs of the
// benchmark have 43–113 and 46–60; a low guess costs an index growth or two,
// a high one idle slots (eight bytes each).
const (
	bytesPerToken = 64
	bytesPerValue = 48
)

// wrapLoadErr attributes a loader error to the KB being loaded, so a caller
// reading several inputs can tell which one failed. Parse errors already
// carry line context and pass through unchanged.
func wrapLoadErr(name string, err error) error {
	var pe *ParseError
	if errors.As(err, &pe) {
		return err
	}
	return fmt.Errorf("kb: %s: %w", name, err)
}

// ReadNTriples scans N-Triples statements from r into any TripleSink, in
// input order. It returns the number of skipped malformed lines (lenient
// mode) or the first *ParseError.
func ReadNTriples(sink TripleSink, r io.Reader, lenient bool) (int, error) {
	return readTerms(r, syntax{lenient: lenient}, &stringSink{sink: sink}, chunkBytes)
}

// parseNTLine parses one N-Triples statement into its three terms. The terms
// alias line, except a literal with escapes, which is decoded into *scratch.
func parseNTLine(line []byte, scratch *[]byte) (subj, pred, obj []byte, objIsURI bool, err error) {
	subj, rest, ok := parseSubject(line)
	if !ok {
		return nil, nil, nil, false, errMissingSubject
	}
	pred, rest, ok = parseURI(rest)
	if !ok {
		return nil, nil, nil, false, errMissingPredicate
	}
	rest = bytes.TrimLeft(rest, " \t")
	if len(rest) == 0 {
		return nil, nil, nil, false, errMissingObject
	}
	switch rest[0] {
	case '<':
		if obj, _, ok = parseURI(rest); !ok {
			return nil, nil, nil, false, errMissingObject
		}
		return subj, pred, obj, true, nil
	case '"':
		if obj, ok = parseLiteral(rest, scratch); !ok {
			return nil, nil, nil, false, errUnterminated
		}
		return subj, pred, obj, false, nil
	case '_': // blank node: treat its label as a URI-like identifier
		end := bytes.IndexAny(rest, " \t")
		if end < 0 {
			end = len(rest)
		}
		return subj, pred, rest[:end], true, nil
	default:
		return nil, nil, nil, false, errMissingObject
	}
}

// parseSubject consumes a leading subject term: either <uri> or a blank node
// label (_:x), whose label is used as the identifier.
func parseSubject(s []byte) (subj, rest []byte, ok bool) {
	s = bytes.TrimLeft(s, " \t")
	if len(s) > 0 && s[0] == '_' {
		end := bytes.IndexAny(s, " \t")
		if end < 0 {
			return nil, nil, false
		}
		return s[:end], s[end:], true
	}
	return parseURI(s)
}

// parseURI consumes a leading <...> term and returns it without brackets.
func parseURI(s []byte) (uri, rest []byte, ok bool) {
	s = bytes.TrimLeft(s, " \t")
	if len(s) == 0 || s[0] != '<' {
		return nil, nil, false
	}
	end := bytes.IndexByte(s, '>')
	if end < 0 {
		return nil, nil, false
	}
	return s[1:end], s[end+1:], true
}

// parseLiteral consumes a leading "..." literal and strips any datatype
// (^^<...>) or language (@xx) suffix. A literal without \-escapes is
// returned as a view of s; one with escapes is decoded into (*scratch)[:0].
func parseLiteral(s []byte, scratch *[]byte) ([]byte, bool) {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			return s[1:i], true
		case '\\':
			return unescapeLiteral(s, i, scratch)
		}
	}
	return nil, false
}

// unescapeLiteral finishes parseLiteral from the first backslash, at s[i].
func unescapeLiteral(s []byte, i int, scratch *[]byte) ([]byte, bool) {
	b := append((*scratch)[:0], s[1:i]...)
	defer func() { *scratch = b }()
	for i < len(s) {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				b = append(b, '\n')
			case 't':
				b = append(b, '\t')
			case 'r':
				b = append(b, '\r')
			case 'u':
				if i+6 > len(s) {
					return nil, false
				}
				r, err := strconv.ParseUint(string(s[i+2:i+6]), 16, 32)
				if err != nil {
					return nil, false
				}
				b = utf8.AppendRune(b, rune(r))
				i += 6
				continue
			default: // \" and \\, and any other escaped byte stands for itself
				b = append(b, s[i+1])
			}
			i += 2
			continue
		}
		if c == '"' {
			return b, true
		}
		b = append(b, c)
		i++
	}
	return nil, false
}

// ReadTSV scans tab-separated subject/predicate/object rows from r into any
// TripleSink, returning the number of skipped malformed rows.
func ReadTSV(sink TripleSink, r io.Reader, uriObjects bool) (int, error) {
	return readTerms(r, syntax{tsv: true, uriObjects: uriObjects}, &stringSink{sink: sink}, chunkBytes)
}

// WriteNTriples serializes the KB in N-Triples format, one statement per
// attribute-value pair and relation. Round-tripping through LoadNTriples
// reproduces the same KB (tested property). A KB from a file is verified
// first, and one that fails is refused with ErrCorrupt.
func WriteNTriples(w io.Writer, k *KB) error {
	if err := k.Verify(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for id := 0; id < k.Len(); id++ {
		d := k.Entity(EntityID(id))
		for _, av := range d.Attrs {
			if _, err := fmt.Fprintf(bw, "<%s> <%s> %s .\n", d.URI, av.Attribute, quoteLiteral(av.Value)); err != nil {
				return err
			}
		}
		for _, rel := range d.Relations {
			if _, err := fmt.Fprintf(bw, "<%s> <%s> <%s> .\n", d.URI, rel.Predicate, k.Entity(rel.Object).URI); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func quoteLiteral(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
