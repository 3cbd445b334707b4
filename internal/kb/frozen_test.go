package kb

import (
	"math/rand"
	"sort"
	"testing"
)

// The string-order kernel behind FreezeStrings must produce the permutation
// of a comparison sort over At(), on strings built to tie on their first
// eight bytes, to hold zero bytes, to be prefixes of one another and to be
// empty — and Lookup must find every string through it.
func TestFreezeStringsLookupPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	alphabet := []byte{0, 'a', 'b', 0xff}
	seen := map[string]bool{}
	var strs []string
	for len(strs) < 2000 {
		b := make([]byte, r.Intn(14))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		if s := string(b); !seen[s] { // dictionaries hold each string once
			seen[s] = true
			strs = append(strs, s)
		}
	}
	f := FreezeStrings(strs, true)
	want := make([]uint32, len(strs))
	for i := range want {
		want[i] = uint32(i)
	}
	sort.Slice(want, func(a, b int) bool { return strs[want[a]] < strs[want[b]] })
	_, _, sorted := f.Parts()
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("permutation differs at %d: %d (%q), want %d (%q)", i, sorted[i], strs[sorted[i]], want[i], strs[want[i]])
		}
	}
	for i, s := range strs {
		if got, ok := f.Lookup(s); !ok || got != uint32(i) {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", s, got, ok, i)
		}
	}
	if _, ok := f.Lookup("absent"); ok {
		t.Error("found a string that was never frozen")
	}
}
