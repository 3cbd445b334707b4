package kb

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
)

// The string-order kernel behind every sorted permutation (symtab.freeze,
// FreezeStrings, SortedOrder): an MSD radix sort over 8-byte big-endian
// chunks of the strings.
//
// A run of the permutation whose strings agree on their first 8d bytes is
// sorted by chunk d: each string's bytes [8d, 8d+8), zero-padded, as one
// integer key. The key bytes every string of the run shares are skipped; the
// rest are sorted least significant byte first, one stable counting pass per
// byte that varies, through one scratch buffer as long as the table. Runs of
// up to smallRun strings are sorted by comparing keys instead. Then each run
// of equal keys is finished on its own: its strings that end inside the
// chunk come first, shortest first (a string sorts before its extensions)
// and equal ones by index, and only the strings that go on past the chunk
// recurse into chunk d+1. So the permutation is a function of the strings
// alone, and a string is read once per chunk it shares with another. The
// sort runs on the calling goroutine.
const smallRun = 64

// strSorter is one sort of the strings of a table: rec i holds the index
// of the string at position i of the permutation being sorted and its
// current chunk, so moving an entry moves twelve bytes.
type strSorter struct {
	blob []byte
	off  []int64
	recs []strRec
	// tmp is the scratch buffer the LSD passes scatter into.
	tmp []strRec
}

type strRec struct {
	khi, klo, idx uint32 // the key is khi<<32 | klo
}

func (r strRec) key() uint64 { return uint64(r.khi)<<32 | uint64(r.klo) }

// sortedOrder returns the indices of f's strings in string order (equal
// strings by index). f must be a table built here, not one from a file.
func sortedOrder(f *FrozenStrings) []uint32 {
	n := f.Len()
	s := &strSorter{blob: f.blob, off: f.off, recs: make([]strRec, n)}
	for i := range s.recs {
		s.recs[i].idx = uint32(i)
	}
	if n > smallRun {
		s.tmp = make([]strRec, n)
	}
	s.chunk(0, n, 0)
	s.tmp = nil
	order := make([]uint32, n)
	for i, r := range s.recs {
		order[i] = r.idx
	}
	return order
}

// chunkOf returns chunk d of string i: its bytes [8d, 8d+8), zero-padded,
// as a big-endian integer.
func (s *strSorter) chunkOf(i uint32, d int) uint64 {
	lo, hi := s.off[i]+int64(8*d), s.off[i+1]
	if hi-lo >= 8 {
		return binary.BigEndian.Uint64(s.blob[lo : lo+8])
	}
	var k uint64
	for j := lo; j < lo+8; j++ {
		k <<= 8
		if j < hi {
			k |= uint64(s.blob[j])
		}
	}
	return k
}

// chunk sorts recs[lo:hi], whose strings agree on their first 8d bytes.
func (s *strSorter) chunk(lo, hi, d int) {
	for hi-lo > 1 {
		kmin, kmax := ^uint64(0), uint64(0)
		for i := lo; i < hi; i++ {
			k := s.chunkOf(s.recs[i].idx, d)
			s.recs[i].khi, s.recs[i].klo = uint32(k>>32), uint32(k)
			kmin, kmax = min(kmin, k), max(kmax, k)
		}
		if kmin != kmax {
			s.keyed(lo, hi, d, bits.LeadingZeros64(kmin^kmax)/8)
			return
		}
		lo = s.ended(lo, hi, d)
		d++
	}
}

// keyed sorts recs[lo:hi], whose keys of chunk d agree on their first b
// bytes, by key, and finishes each run of equal keys.
func (s *strSorter) keyed(lo, hi, d, b int) {
	if hi-lo <= smallRun {
		slices.SortFunc(s.recs[lo:hi], func(a, b strRec) int { return cmp.Compare(a.key(), b.key()) })
	} else {
		s.lsd(lo, hi, b)
	}
	s.ties(lo, hi, d)
}

// lsd sorts recs[lo:hi], whose keys agree on their first b bytes, by key:
// one stable counting pass per byte that varies, least significant first,
// through the scratch buffer.
func (s *strSorter) lsd(lo, hi, b int) {
	// All eight histograms in one pass: cheaper than skipping the b shared
	// bytes, whose counts are never read.
	var count [8][256]int32
	for _, r := range s.recs[lo:hi] {
		count[0][r.khi>>24]++
		count[1][byte(r.khi>>16)]++
		count[2][byte(r.khi>>8)]++
		count[3][byte(r.khi)]++
		count[4][r.klo>>24]++
		count[5][byte(r.klo>>16)]++
		count[6][byte(r.klo>>8)]++
		count[7][byte(r.klo)]++
	}
	src, dst := s.recs[lo:hi], s.tmp[lo:hi]
	for j := 7; j >= b; j-- {
		shift := 56 - 8*j
		if int(count[j][byte(src[0].key()>>shift)]) == len(src) {
			continue // every key has the same byte here
		}
		scatter(src, dst, shift, &count[j])
		src, dst = dst, src
	}
	if &src[0] != &s.recs[lo] {
		copy(s.recs[lo:hi], src)
	}
}

// scatter copies src into dst ordered by the byte of the key at shift,
// stably; count holds how many keys have each byte.
func scatter(src, dst []strRec, shift int, count *[256]int32) {
	var next [256]int32
	at := int32(0)
	for c, n := range count {
		next[c] = at
		at += n
	}
	for _, r := range src {
		c := byte(r.key() >> shift)
		dst[next[c]] = r
		next[c]++
	}
}

// ties finishes every run of equal keys in recs[lo:hi], which is sorted by
// the keys of chunk d.
func (s *strSorter) ties(lo, hi, d int) {
	for i := lo; i < hi; {
		j := i + 1
		for j < hi && s.recs[j].key() == s.recs[i].key() {
			j++
		}
		if j-i > 1 {
			// The strings that end inside chunk d are put in order, the
			// rest sorted by the next chunk.
			s.chunk(s.ended(i, j, d), j, d+1)
		}
		i = j
	}
}

// ended moves the strings of recs[lo:hi] (which tie on all of chunk d) that
// end inside the chunk to the front, in order: shortest first (a string
// sorts before its extensions), equal ones by index. It returns where the
// strings that go on begin.
func (s *strSorter) ended(lo, hi, d int) int {
	limit, front := int64(8*d+8), lo
	for i := lo; i < hi; i++ {
		if s.len(s.recs[i].idx) <= limit {
			s.recs[front], s.recs[i] = s.recs[i], s.recs[front]
			front++
		}
	}
	slices.SortFunc(s.recs[lo:front], func(a, b strRec) int {
		if c := cmp.Compare(s.len(a.idx), s.len(b.idx)); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	return front
}

func (s *strSorter) len(i uint32) int64 { return s.off[i+1] - s.off[i] }
