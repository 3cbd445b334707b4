package kb

// The implementations this package had before the byte-level ingester — the
// string parser, the strings.ToLower tokenizer, the queue-then-build Builder
// and buildColumns — kept as the reference the new code is tested against.
// They share nothing with it but AssembleKB, which makes their parts a KB.

import (
	"bufio"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

func refReadNTriples(sink TripleSink, r io.Reader, lenient bool) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	skipped := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		subj, pred, obj, objIsURI, err := refParseNTLine(line)
		if err != nil {
			if lenient {
				skipped++
				continue
			}
			return skipped, &ParseError{Line: lineNo, Text: line, Err: err}
		}
		id := sink.AddEntity(subj)
		if objIsURI {
			sink.AddObject(id, pred, obj)
		} else {
			sink.AddLiteral(id, pred, obj)
		}
	}
	return skipped, sc.Err()
}

func refParseNTLine(line string) (subj, pred, obj string, objIsURI bool, err error) {
	rest := line
	subj, rest, err = refParseSubject(rest)
	if err != nil {
		return "", "", "", false, errMissingSubject
	}
	pred, rest, err = refParseURI(rest)
	if err != nil {
		return "", "", "", false, errMissingPredicate
	}
	rest = strings.TrimLeft(rest, " \t")
	if rest == "" {
		return "", "", "", false, errMissingObject
	}
	switch rest[0] {
	case '<':
		obj, _, err = refParseURI(rest)
		if err != nil {
			return "", "", "", false, errMissingObject
		}
		return subj, pred, obj, true, nil
	case '"':
		obj, err = refParseLiteral(rest)
		if err != nil {
			return "", "", "", false, err
		}
		return subj, pred, obj, false, nil
	case '_':
		end := strings.IndexAny(rest, " \t")
		if end < 0 {
			end = len(rest)
		}
		return subj, pred, rest[:end], true, nil
	default:
		return "", "", "", false, errMissingObject
	}
}

func refParseSubject(s string) (subj, rest string, err error) {
	s = strings.TrimLeft(s, " \t")
	if strings.HasPrefix(s, "_") {
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			return "", "", errUnterminated
		}
		return s[:end], s[end:], nil
	}
	return refParseURI(s)
}

func refParseURI(s string) (uri, rest string, err error) {
	s = strings.TrimLeft(s, " \t")
	if !strings.HasPrefix(s, "<") {
		return "", "", errUnterminated
	}
	end := strings.IndexByte(s, '>')
	if end < 0 {
		return "", "", errUnterminated
	}
	return s[1:end], s[end+1:], nil
}

func refParseLiteral(s string) (string, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", errUnterminated
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'u':
				if i+6 <= len(s) {
					if n, err := strconv.ParseUint(s[i+2:i+6], 16, 32); err == nil {
						b.WriteRune(rune(n))
						i += 6
						continue
					}
				}
				return "", errUnterminated
			default:
				b.WriteByte(s[i+1])
			}
			i += 2
			continue
		}
		if c == '"' {
			return b.String(), nil
		}
		b.WriteByte(c)
		i++
	}
	return "", errUnterminated
}

func refTokens(value string) []string {
	var out []string
	start := -1
	lower := strings.ToLower(value)
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, lower[start:])
	}
	return out
}

func refNormalizeName(value string) string {
	var b strings.Builder
	b.Grow(len(value))
	lastSpace := true
	for _, r := range strings.ToLower(value) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
			lastSpace = false
			continue
		}
		if !lastSpace {
			b.WriteByte(' ')
			lastSpace = true
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// refBuilder queues every statement as strings and does all the work in
// Build: a token set (map + string sort) per entity, then the columns
// (refBuildColumns) and the statement tables, assembled into a KB.
type refBuilder struct {
	name     string
	entities []Description
	byURI    map[string]EntityID
	dict     *Interner
	schema   *Schema
	pending  []refTriple
}

type refTriple struct {
	subject     EntityID
	predicate   string
	object      string
	objectIsURI bool
}

func newRefBuilder(name string) *refBuilder {
	return &refBuilder{name: name, byURI: make(map[string]EntityID), dict: NewInterner(), schema: NewSchema()}
}

func (b *refBuilder) AddEntity(uri string) EntityID {
	if id, ok := b.byURI[uri]; ok {
		return id
	}
	id := EntityID(len(b.entities))
	b.entities = append(b.entities, Description{URI: uri})
	b.byURI[uri] = id
	return id
}

func (b *refBuilder) AddLiteral(id EntityID, attribute, value string) {
	b.pending = append(b.pending, refTriple{id, attribute, value, false})
}

func (b *refBuilder) AddObject(id EntityID, predicate, objectURI string) {
	b.pending = append(b.pending, refTriple{id, predicate, objectURI, true})
}

func (b *refBuilder) Build() *KB {
	for _, t := range b.pending {
		d := &b.entities[t.subject]
		if t.objectIsURI {
			if obj, ok := b.byURI[t.object]; ok {
				d.Relations = append(d.Relations, Relation{Predicate: t.predicate, Object: obj})
				continue
			}
		}
		d.Attrs = append(d.Attrs, AttributeValue{Attribute: t.predicate, Value: t.object})
	}
	for i := range b.entities {
		set := make(map[string]struct{})
		for _, av := range b.entities[i].Attrs {
			for _, tok := range refTokens(av.Value) {
				set[tok] = struct{}{}
			}
		}
		sorted := make([]string, 0, len(set))
		for tok := range set {
			sorted = append(sorted, tok)
		}
		slices.Sort(sorted)
		for _, tok := range sorted {
			b.entities[i].tokens = append(b.entities[i].tokens, b.dict.Intern(tok))
		}
		b.entities[i].dict = b.dict
	}
	// The reference's descriptions, laid out as the parts a KB holds.
	uris, vals := make([]string, len(b.entities)), []string{}
	c := refBuildColumns(b.entities, b.schema)
	p := SnapshotParts{
		Name: b.name, Triples: len(b.pending), Dict: b.dict, Schema: b.schema,
		TokenOff: make([]int64, len(b.entities)+1),
		RelOff:   c.relOff, RelPred: c.relPred, RelObj: c.relObj,
		AttrOff: c.attrOff, AttrName: c.attrName, AttrVal: c.attrVal,
	}
	for i := range b.entities {
		d := &b.entities[i]
		uris[i] = d.URI
		p.Tokens = append(p.Tokens, d.tokens...)
		p.TokenOff[i+1] = int64(len(p.Tokens))
		for _, av := range d.Attrs {
			a, _ := b.schema.LookupAttr(av.Attribute)
			p.StmtAttrName = append(p.StmtAttrName, a)
			vals = append(vals, av.Value)
		}
		for _, r := range d.Relations {
			pred, _ := b.schema.LookupPred(r.Predicate)
			p.StmtRelPred = append(p.StmtRelPred, pred)
			p.StmtRelObj = append(p.StmtRelObj, r.Object)
		}
	}
	p.URIs, p.StmtVals = FreezeStrings(uris, true), FreezeStrings(vals, false)
	k, err := AssembleKB(p)
	if err != nil {
		panic(err)
	}
	return k
}

func refBuildColumns(entities []Description, sch *Schema) columns {
	c := columns{
		relOff:  make([]int32, len(entities)+1),
		attrOff: make([]int32, len(entities)+1),
	}
	var scratch []uint64
	for i := range entities {
		d := &entities[i]
		c.relOff[i] = int32(len(c.relPred))
		scratch = scratch[:0]
		for _, r := range d.Relations {
			scratch = append(scratch, uint64(sch.InternPred(r.Predicate))<<32|uint64(uint32(r.Object)))
		}
		slices.Sort(scratch)
		for _, key := range scratch {
			c.relPred = append(c.relPred, PredID(key>>32))
			c.relObj = append(c.relObj, EntityID(int32(uint32(key))))
		}
		c.attrOff[i] = int32(len(c.attrName))
		scratch = scratch[:0]
		for _, av := range d.Attrs {
			a := sch.InternAttr(av.Attribute)
			v := sch.InternValue(refNormalizeName(av.Value))
			scratch = append(scratch, uint64(a)<<32|uint64(v))
		}
		slices.Sort(scratch)
		for _, key := range scratch {
			c.attrName = append(c.attrName, AttrID(key>>32))
			c.attrVal = append(c.attrVal, ValueID(uint32(key)))
		}
	}
	c.relOff[len(entities)] = int32(len(c.relPred))
	c.attrOff[len(entities)] = int32(len(c.attrName))
	return c
}
