package kb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refOrder is the order sortedOrder promises: by string, equal strings by
// index.
func refOrder(strs []string) []uint32 {
	order := make([]uint32, len(strs))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortStableFunc(order, func(a, b uint32) int { return strings.Compare(strs[a], strs[b]) })
	return order
}

// checkOrder fails t where SortedOrder(strs) differs from the reference.
func checkOrder(t *testing.T, strs []string) {
	t.Helper()
	got, want := SortedOrder(strs), refOrder(strs)
	if len(got) != len(want) {
		t.Fatalf("%d indices for %d strings", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: index %d (%q), want %d (%q)", i, got[i], strs[got[i]], want[i], strs[want[i]])
		}
	}
}

// orderFixture draws n strings built to make the kernel's every branch
// decide: empty strings, strings sharing prefixes of 7, 8, 9, 16, 17 and 40
// bytes (chunk boundaries and several chunks deep), zero bytes and bytes of
// 0x80 and above in the tails, and one string in five a duplicate of an
// earlier one.
func orderFixture(r *rand.Rand, n int) []string {
	base := strings.Repeat("prefix\x00\x80", 5) // 40 bytes
	prefixes := []string{"", base[:7], base[:8], base[:9], base[:16], base[:17], base[:40]}
	alphabet := []byte{0, 1, 'a', 'b', 'p', 0x7f, 0x80, 0xff}
	strs := make([]string, 0, n)
	for len(strs) < n {
		if len(strs) > 0 && r.Intn(5) == 0 {
			strs = append(strs, strs[r.Intn(len(strs))])
			continue
		}
		tail := make([]byte, r.Intn(11))
		for i := range tail {
			tail[i] = alphabet[r.Intn(len(alphabet))]
		}
		strs = append(strs, prefixes[r.Intn(len(prefixes))]+string(tail))
	}
	return strs
}

// The radix kernel must give the permutation of a stable comparison sort —
// equal strings by index — at every size that switches its path (empty,
// one string, the small-run threshold ±1) and on tables long enough for
// several LSD passes and deep tied runs.
func TestSortedOrderMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, smallRun - 1, smallRun, smallRun + 1, 5000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			checkOrder(t, orderFixture(rand.New(rand.NewSource(int64(n))), n))
		})
	}
	// URIs: half of them in one scheme, a tied run three chunks deep, with
	// duplicates among them.
	t.Run("uris", func(t *testing.T) {
		strs := make([]string, 20000)
		for i := range strs {
			if i%2 == 0 {
				strs[i] = fmt.Sprintf("http://example.org/resource/%x", (i*7919)%9000)
			} else {
				strs[i] = fmt.Sprintf("urn:x:%d", i)
			}
		}
		checkOrder(t, strs)
	})
}

// FuzzSortedOrder checks the kernel against the reference on strings cut
// from arbitrary bytes: each string is a length byte (mod 48) and that many
// bytes. The list is repeated a few times, each copy cut shorter, so small
// inputs still reach the radix path with duplicates and prefixes.
func FuzzSortedOrder(f *testing.F) {
	f.Add([]byte("\x05alpha\x04beta\x05alpha\x00\x02\xff\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		reps := 1 + int(data[0]%8)
		var strs []string
		for rest := data[1:]; len(rest) > 0; {
			n := min(int(rest[0]%48), len(rest)-1)
			strs, rest = append(strs, string(rest[1:1+n])), rest[1+n:]
		}
		first := len(strs)
		for r := 1; r < reps; r++ {
			for _, s := range strs[:first] {
				strs = append(strs, s[:len(s)*(reps-r)/reps])
			}
		}
		checkOrder(t, strs)
	})
}
