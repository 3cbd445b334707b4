package kb

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
)

// The chunked ingester. A file is cut into newline-aligned chunks, which up
// to GOMAXPROCS parsers turn into chunk-local tables; one merger then takes
// the chunks in input order and interns each chunk's strings into the
// Builder's tables in the order the chunk first saw them. A string new to the
// whole input is new to the first chunk holding it, at the position where the
// input first holds it, so the merged tables assign exactly the IDs a single
// reader interning statement by statement would: every ID is a function of
// the input alone, whatever the chunk size or the number of parsers.

// chunkBytes is how many bytes of input a chunk holds, give or take a line.
// A chunk's local tables then stay in cache while it is parsed: on the
// benchmark's pairs 128 KB to 512 KB chunks read fastest, and 2 MB chunks
// raised LoadPair's peak RSS by over 40 MB.
const chunkBytes = 256 << 10

// maxLine is the longest line the readers accept, counting its newline.
const maxLine = 16 << 20

// chunkReader cuts an input into newline-aligned chunks: each ends at the
// last newline once it holds at least size bytes, or at the end of the
// input. A line longer than size makes a chunk of its own; one longer than
// maxLine with its newline is refused with bufio.ErrTooLong.
type chunkReader struct {
	ctx   context.Context
	r     io.Reader
	what  string // the format, for read errors
	size  int
	carry []byte // the start of the next chunk's first line
	done  bool   // the input is read, or an error has been returned
}

// next reads the next chunk into buf (which it may grow) and returns it. It
// returns io.EOF once the input is used up, and after it has returned any
// other error: ctx.Err() when ctx is done, checked before each chunk, or a
// read error.
func (rd *chunkReader) next(buf []byte) ([]byte, error) {
	if rd.done {
		return buf[:0], io.EOF
	}
	if err := rd.ctx.Err(); err != nil {
		rd.done = true
		return buf[:0], err
	}
	buf = append(buf[:0], rd.carry...)
	rd.carry = rd.carry[:0]
	scanned := 0 // buf[:scanned] holds no newline
	for {
		if len(buf) >= rd.size {
			if i := bytes.LastIndexByte(buf[scanned:], '\n'); i >= 0 {
				cut := scanned + i + 1
				rd.carry = append(rd.carry, buf[cut:]...)
				return buf[:cut], nil
			}
			if len(buf) >= maxLine {
				rd.done = true
				return buf[:0], fmt.Errorf("reading %s: %w", rd.what, bufio.ErrTooLong)
			}
			scanned = len(buf)
		}
		// Read up to size bytes at a time, and never past maxLine bytes of a
		// line without a newline. The buffer doubles from 4 KB, so a small
		// input gets a small one.
		want := rd.size - len(buf)
		if want <= 0 {
			want = min(rd.size, maxLine-len(buf))
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(want, max(len(buf), 4<<10)))
		}
		n, err := rd.r.Read(buf[len(buf):min(cap(buf), len(buf)+want)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			rd.done = true
			if len(buf) == 0 {
				return buf, io.EOF
			}
			return buf, nil
		}
		if err != nil {
			rd.done = true
			return buf[:0], fmt.Errorf("reading %s: %w", rd.what, err)
		}
	}
}

// syntax is an input format with its option.
type syntax struct {
	tsv bool
	// lenient (N-Triples) counts and skips malformed lines instead of
	// failing; uriObjects (TSV) lets an object name an entity.
	lenient, uriObjects bool
}

func (s syntax) String() string {
	if s.tsv {
		return "tsv"
	}
	return "n-triples"
}

// parse feeds the statements of one chunk to sink, in order. It returns how
// many lines it read and skipped and, in strict N-Triples, the first
// *ParseError, whose Line counts from the chunk's first line.
func (s syntax) parse(chunk []byte, sink termSink, unescaped *[]byte) (lines, skipped int, err error) {
	for len(chunk) > 0 {
		line := chunk
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			line, chunk = chunk[:i], chunk[i+1:]
		} else {
			chunk = nil
		}
		lines++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if s.tsv {
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			subj, rest, ok1 := bytes.Cut(line, []byte{'\t'})
			pred, obj, ok2 := bytes.Cut(rest, []byte{'\t'})
			if !ok1 || !ok2 || len(subj) == 0 || len(pred) == 0 {
				skipped++
				continue
			}
			sink.addTerms(subj, pred, obj, s.uriObjects)
			continue
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		subj, pred, obj, objIsURI, err := parseNTLine(line, unescaped)
		if err != nil {
			if s.lenient {
				skipped++
				continue
			}
			return lines, skipped, &ParseError{Line: lines, Text: string(line), Err: err}
		}
		sink.addTerms(subj, pred, obj, objIsURI)
	}
	return lines, skipped, nil
}

// readTerms is the reader behind ReadNTriples and ReadTSV: it feeds every
// statement of r to sink in input order, on the calling goroutine.
func readTerms(r io.Reader, syn syntax, sink termSink, size int) (skipped int, err error) {
	rd := chunkReader{ctx: context.Background(), r: r, what: syn.String(), size: size}
	var buf, unescaped []byte
	line := 0
	for {
		if buf, err = rd.next(buf); err != nil {
			if err == io.EOF {
				err = nil
			}
			return skipped, err
		}
		lines, s, err := syn.parse(buf, sink, &unescaped)
		if skipped += s; err != nil {
			return skipped, atLine(err, line)
		}
		line += lines
	}
}

// atLine makes the line of a chunk's *ParseError count from the input's
// first line, the chunk starting after line lines.
func atLine(err error, line int) error {
	var pe *ParseError
	if errors.As(err, &pe) {
		pe.Line += line
	}
	return err
}

// chunk is one newline-aligned piece of an input and what a parser made of
// it. Subjects, predicates and tokens are interned into tables of the
// chunk's own, with first-seen IDs; each literal's normalized value is kept
// beside its tokens, and each statement is a record over local IDs. The
// records, the token IDs and the literal text go to the Builder when the
// chunk is merged; the rest is the parser's to reuse.
type chunk struct {
	seq  int
	buf  []byte
	err  error // the read error, or the parse error that ended the chunk
	line int   // lines read, or the line of the error
	skip int   // lines skipped

	subjs, preds, toks symtab
	last               uint32  // the subject of the previous statement, +1
	seg                segment // the records, local token IDs and literal text
	norm               []byte  // normalized values of the literals, end to end
	normEnd            []uint32
	objs               []byte // object URIs, end to end
	low, unescaped     []byte // scratch
	// handed holds the lengths of the last arrays the merger took, the
	// capacity the next parse starts its own with.
	handed [3]int
}

func newChunk() *chunk {
	return &chunk{subjs: newSymtab(), preds: newSymtab(), toks: newSymtab()}
}

// parse parses c.buf into the chunk's tables, which it empties first.
func (c *chunk) parse(syn syntax) {
	c.subjs.reset()
	c.preds.reset()
	c.toks.reset()
	c.last = 0
	c.seg.stmts = slices.Grow(c.seg.stmts[:0], c.handed[0])
	c.seg.toks = slices.Grow(c.seg.toks[:0], c.handed[1])
	c.seg.text = slices.Grow(c.seg.text[:0], c.handed[2])
	c.normEnd, c.norm, c.objs = c.normEnd[:0], c.norm[:0], c.objs[:0]
	c.line, c.skip, c.err = syn.parse(c.buf, c, &c.unescaped)
}

// addTerms makes c the sink of its own parse.
func (c *chunk) addTerms(subj, pred, obj []byte, objIsURI bool) {
	if c.last == 0 || !bytes.Equal(c.subjs.at(c.last-1), subj) {
		c.last = c.subjs.internBytes(subj) + 1
	}
	st := stmt{subj: EntityID(c.last - 1), pred: c.preds.internBytes(pred), obj: objLiteral}
	if objIsURI {
		st.obj = objURI
		st.lo = uint32(len(c.objs))
		c.objs = append(c.objs, obj...)
		st.hi = uint32(len(c.objs))
		c.seg.stmts = appendDoubling(c.seg.stmts, st)
		return
	}
	st.lo, st.hi = c.seg.addText(obj)
	low := lowerBytes(&c.low, obj)
	n := len(c.seg.toks)
	for i := 0; ; {
		start, end := nextToken(low, i)
		if start == end {
			break
		}
		c.seg.toks = appendDoubling(c.seg.toks, TokenID(c.toks.internBytes(low[start:end])))
		i = end
	}
	st.ntok = uint32(len(c.seg.toks) - n)
	c.norm = appendNormalized(c.norm, low)
	c.normEnd = appendDoubling(c.normEnd, uint32(len(c.norm)))
	c.seg.stmts = appendDoubling(c.seg.stmts, st)
}

// merger appends parsed chunks to a Builder, in input order.
type merger struct {
	b                *Builder
	line, skipped    int
	subj, pred, toks []uint32 // the shared ID of each local one
}

// merge rewrites c's records and token IDs in place over the Builder's IDs
// and hands them, with the literal text, to the Builder as its next segment;
// or it returns the error that ended c, with its line counted from the
// input's first line. An object URI that names no entity yet is copied to
// the end of the text, where Build looks it up again.
func (m *merger) merge(c *chunk) error {
	m.skipped += c.skip
	if c.err != nil {
		return atLine(c.err, m.line)
	}
	m.line += c.line
	b := m.b
	b.closeOpen()
	m.subj = internAll(m.subj, &c.subjs, b.uris)
	m.pred = internAll(m.pred, &c.preds, &b.preds)
	t := &b.dict.t
	t.mu.Lock()
	m.toks = internAll(m.toks, &c.toks, t)
	t.mu.Unlock()
	for i, id := range c.seg.toks {
		c.seg.toks[i] = TokenID(m.toks[id])
	}
	vals := &b.schema.vals
	vals.mu.Lock()
	lo, next := uint32(0), 0
	for i := range c.seg.stmts {
		s := &c.seg.stmts[i]
		s.subj, s.pred = EntityID(m.subj[s.subj]), m.pred[s.pred]
		if s.obj == objLiteral {
			hi := c.normEnd[next]
			next++
			s.val = ValueID(vals.internBytes(c.norm[lo:hi]))
			lo = hi
		} else if obj, ok := b.uris.find(c.objs[s.lo:s.hi]); ok {
			s.obj = EntityID(obj)
		} else {
			s.obj = objPending
			s.lo, s.hi = c.seg.addText(c.objs[s.lo:s.hi])
		}
	}
	vals.mu.Unlock()
	b.segs = append(b.segs, c.seg)
	c.handed = [3]int{len(c.seg.stmts), len(c.seg.toks), len(c.seg.text)}
	c.seg = segment{}
	return nil
}

// internAll interns every string of local into shared, in local-ID order,
// and returns their shared IDs in ids (reused).
func internAll(ids []uint32, local, shared *symtab) []uint32 {
	ids = slices.Grow(ids[:0], local.tab.Len())
	for i := 0; i < local.tab.Len(); i++ {
		ids = append(ids, shared.internBytes(local.at(uint32(i))))
	}
	return ids
}

// ingest reads r into b in chunks of about size bytes, and returns the
// number of skipped lines or the first error in input order. With one P it
// reads, parses and merges each chunk in turn on the calling goroutine;
// otherwise GOMAXPROCS parsers read and parse chunks while the calling
// goroutine merges them, with at most two chunks per parser in flight. It
// returns once every parser has exited.
func (b *Builder) ingest(ctx context.Context, r io.Reader, syn syntax, size int) (int, error) {
	m := merger{b: b}
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 {
		rd := chunkReader{ctx: ctx, r: r, what: syn.String(), size: size}
		c := newChunk()
		for {
			if c.buf, c.err = rd.next(c.buf); c.err == io.EOF {
				return m.skipped, nil
			}
			if c.err == nil {
				c.parse(syn)
			}
			if err := m.merge(c); err != nil {
				return m.skipped, err
			}
		}
	}

	// The parsers read under the caller's ctx, so a cancellation reaches the
	// merger as an error chunk in input order; stop is the merger's own.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	rd := chunkReader{ctx: ctx, r: r, what: syn.String(), size: size}
	var readMu sync.Mutex
	seq := 0
	inFlight := 2 * workers
	// free holds the chunks not in flight (nil until first used), parsed
	// the chunks parsed; each can hold every chunk, so no send blocks.
	free, parsed := make(chan *chunk, inFlight), make(chan *chunk, inFlight)
	for i := 0; i < inFlight; i++ {
		free <- nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := <-free
				if c == nil {
					c = newChunk()
				}
				readMu.Lock()
				c.buf, c.err = rd.next(c.buf)
				c.seq = seq
				seq++
				readMu.Unlock()
				if c.err == io.EOF {
					free <- c // for the next parser to find the end too
					return
				}
				if c.err == nil {
					c.parse(syn)
				}
				parsed <- c
			}
		}()
	}
	go func() {
		wg.Wait()
		close(parsed)
	}()

	// Chunks arrive in any order; the ones ahead of the next to merge wait
	// in ring, at the slot of their sequence number. After an error every
	// chunk goes straight back to free, until the parsers have read to the
	// end (rd.next reports the cancelled ctx once, then io.EOF).
	ring := make([]*chunk, inFlight)
	next := 0
	var err error
	for c := range parsed {
		ring[c.seq%inFlight] = c
		for err == nil && ring[next%inFlight] != nil {
			c := ring[next%inFlight]
			ring[next%inFlight] = nil
			next++
			err = m.merge(c)
			free <- c
		}
		if err != nil {
			stop()
			for i, c := range ring {
				if c != nil {
					ring[i] = nil
					free <- c
				}
			}
		}
	}
	return m.skipped, err
}
