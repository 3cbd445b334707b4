package kb

import (
	"bytes"
	"slices"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// The text core. Tokenizing a value and normalizing a name are the same two
// steps — lower-case rune by rune, then cut at every rune that is neither a
// letter nor a digit — and both the string forms the query path calls
// (Tokenizer.Tokens, NormalizeName) and the ingester's byte forms run on the
// three functions below, so a literal read from a file and the same literal
// sent in a query cannot disagree.

// wordByte marks the ASCII bytes that belong to a token once lower-cased.
var wordByte = func() (t [utf8.RuneSelf]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = true
	}
	return t
}()

// bytesOf views a string's bytes without copying; callers only read them.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// lowerBytes lower-cases src rune by rune (unicode.ToLower; an invalid byte
// becomes U+FFFD, as strings.ToLower has it). Text that is already lower-case
// ASCII — most of a Web KB — is returned as is; anything else is built in
// (*buf)[:0], which is grown as needed and can be reused by the next call.
func lowerBytes(buf *[]byte, src []byte) []byte {
	i := 0
	for i < len(src) && src[i] < utf8.RuneSelf && (src[i] < 'A' || src[i] > 'Z') {
		i++
	}
	if i == len(src) {
		return src
	}
	out := append((*buf)[:0], src[:i]...)
	for i < len(src) {
		c := src[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, size := utf8.DecodeRune(src[i:])
		out = utf8.AppendRune(out, unicode.ToLower(r))
		i += size
	}
	*buf = out
	return out
}

// nextToken finds the first token of lower-cased text at or after i: the
// maximal run of letters and digits low[start:end]. start == len(low) when
// there is none.
func nextToken(low []byte, i int) (start, end int) {
	start = -1
	for i < len(low) {
		c := low[i]
		word, size := false, 1
		if c < utf8.RuneSelf {
			word = wordByte[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(low[i:])
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		if word && start < 0 {
			start = i
		} else if !word && start >= 0 {
			return start, i
		}
		i += size
	}
	if start < 0 {
		return len(low), len(low)
	}
	return start, len(low)
}

// appendNormalized appends the name form of lower-cased text to dst: its
// tokens joined by single spaces.
func appendNormalized(dst, low []byte) []byte {
	n := len(dst)
	for i := 0; ; {
		start, end := nextToken(low, i)
		if start == end {
			return dst
		}
		if len(dst) > n {
			dst = append(dst, ' ')
		}
		dst = append(dst, low[start:end]...)
		i = end
	}
}

// Tokenizer turns literal values into the schema-agnostic bag of tokens used
// throughout MinoanER (§2.1): single words in attribute values, lowercased,
// split on any non-alphanumeric rune. Numbers and dates are handled the same
// way as strings (paper footnote 4).
type Tokenizer struct{}

// NewTokenizer returns a Tokenizer with the paper's defaults.
func NewTokenizer() *Tokenizer { return &Tokenizer{} }

// Tokens splits a single literal value into lowercase tokens.
func (t *Tokenizer) Tokens(value string) []string {
	var buf []byte
	low := lowerBytes(&buf, bytesOf(value))
	if buf != nil {
		value = string(low) // not lower-case as given: the tokens are substrings of the copy
	}
	var out []string
	for i := 0; ; {
		start, end := nextToken(low, i)
		if start == end {
			return out
		}
		out = append(out, value[start:end])
		i = end
	}
}

// TokenSetOf returns the sorted distinct tokens of a list of raw values (the
// query path's counterpart of a built description's token set).
func (t *Tokenizer) TokenSetOf(values ...string) []string {
	var out []string
	for _, v := range values {
		out = append(out, t.Tokens(v)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NormalizeName canonicalizes a literal used as an entity name for name
// blocking (§3.1): lowercase, collapse internal whitespace and punctuation to
// single spaces, trim. Two entities share a name block iff their normalized
// names are equal.
func NormalizeName(value string) string {
	var low []byte
	src := bytesOf(value)
	out := appendNormalized(make([]byte, 0, len(src)), lowerBytes(&low, src))
	if bytes.Equal(out, src) {
		return value
	}
	return string(out)
}
