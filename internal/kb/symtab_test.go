package kb

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// symtabInputs draws the byte strings the table is checked on: the empty
// string, every single byte, non-UTF-8 runs, strings that tie on their first
// eight bytes, one string over a megabyte, random text — each drawn again
// now and then, so that most calls after the first few hit.
func symtabInputs(r *rand.Rand, n int) []string {
	out := []string{"", strings.Repeat("\xfe", 1<<20+7)}
	for c := 0; c < 256; c++ {
		out = append(out, string([]byte{byte(c)}))
	}
	for len(out) < n {
		if len(out) > 300 && r.Intn(3) == 0 {
			out = append(out, out[r.Intn(len(out))])
			continue
		}
		var b []byte
		switch r.Intn(3) {
		case 0: // non-UTF-8
			b = make([]byte, 1+r.Intn(12))
			for i := range b {
				b[i] = byte(0x80 + r.Intn(0x80))
			}
		case 1: // a shared eight-byte prefix
			b = append([]byte("prefix:\x00"), byte(r.Intn(256)), byte(r.Intn(256)))
		default:
			b = make([]byte, r.Intn(24))
			for i := range b {
				b[i] = byte(r.Intn(256))
			}
		}
		out = append(out, string(b))
	}
	return out
}

// The flat table against a map: the same first-seen IDs from an unreserved
// empty table through more than ten doublings of its index, every string
// back by ID and by Lookup, misses missed, and a Freeze that is byte for
// byte FreezeStrings over the same strings — and the frozen table it gives
// answering Lookup the same.
func TestSymtabAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	tab := newSymtab()
	ref := map[string]uint32{}
	var strs []string
	for _, s := range symtabInputs(r, 40000) {
		want, ok := ref[s]
		if !ok {
			want = uint32(len(strs))
			ref[s] = want
			strs = append(strs, s)
		}
		if got := tab.intern(s); got != want {
			t.Fatalf("intern(%q) = %d, map says %d", s, got, want)
		}
	}
	if len(tab.index) < minIndex<<10 {
		t.Fatalf("index grew to %d slots only; want ten doublings of %d", len(tab.index), minIndex)
	}
	if tab.len() != len(strs) {
		t.Fatalf("len = %d, want %d", tab.len(), len(strs))
	}

	frozen := tab.freeze()
	want := FreezeStrings(strs, true)
	gb, goff, gsorted := frozen.Parts()
	wb, woff, wsorted := want.Parts()
	if !bytes.Equal(gb, wb) || !slices.Equal(goff, woff) || !slices.Equal(gsorted, wsorted) {
		t.Fatal("Freeze differs from FreezeStrings over the same strings")
	}
	fz := frozenSymtab(frozen)
	for _, live := range []*symtab{&tab, &fz} {
		for id, s := range strs {
			if got := live.str(uint32(id)); got != s {
				t.Fatalf("frozen=%t: str(%d) = %q, want %q", live.frozen, id, got, s)
			}
			if got, ok := live.lookup(s); !ok || got != uint32(id) {
				t.Fatalf("frozen=%t: lookup(%q) = %d, %t; want %d", live.frozen, s, got, ok, id)
			}
		}
		for i := 0; i < 2000; i++ {
			miss := fmt.Sprintf("prefix:\x00miss%d", i)
			if _, ok := live.lookup(miss); ok {
				t.Fatalf("frozen=%t: lookup(%q) hit a string never interned", live.frozen, miss)
			}
		}
	}
}

// A frozen table is read-only.
func TestSymtabFrozenInternPanics(t *testing.T) {
	in := NewFrozenInterner(FreezeStrings([]string{"a"}, true))
	defer func() {
		if recover() == nil {
			t.Fatal("interning into a frozen dictionary did not panic")
		}
	}()
	in.Intern("b")
}

// The contract view and str document: strings and a view taken before the
// table grows stay readable and unchanged while another goroutine interns
// through several growths of the blob and the index (the race detector
// watches the bytes).
func TestSymtabViewSurvivesGrowth(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 100; i++ {
		in.Intern(fmt.Sprintf("word%d", i))
	}
	view := in.t.view()
	kept := make([]string, view.Len())
	want := make([]string, view.Len())
	for i := range kept {
		kept[i] = in.TokenString(TokenID(i))
		want[i] = strings.Clone(kept[i])
	}
	blobCap, indexLen := cap(in.t.tab.blob), len(in.t.index)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 50000; i++ {
			in.Intern(fmt.Sprintf("grown token %d", i))
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for i, w := range want {
			if kept[i] != w || view.At(i) != w {
				t.Fatalf("string %d changed under growth: %q / %q, want %q", i, kept[i], view.At(i), w)
			}
		}
	}
	wg.Wait()
	if cap(in.t.tab.blob) < 8*blobCap || len(in.t.index) < 8*indexLen {
		t.Fatalf("blob %d -> %d bytes, index %d -> %d slots: fewer than three growths", blobCap, cap(in.t.tab.blob), indexLen, len(in.t.index))
	}
}

// FuzzInterner splits arbitrary bytes at zero bytes into strings, interns
// them in order and checks IDs and lookups against a map, on the live table
// and on its frozen form.
func FuzzInterner(f *testing.F) {
	f.Add([]byte("alpha\x00beta\x00alpha\x00\x00\xff\xfe\x00beta"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := newSymtab()
		ref := map[string]uint32{}
		parts := bytes.Split(data, []byte{0})
		for _, p := range parts {
			want, ok := ref[string(p)]
			if !ok {
				want = uint32(len(ref))
				ref[string(p)] = want
			}
			tab.mu.Lock()
			got := tab.internBytes(p)
			tab.mu.Unlock()
			if got != want {
				t.Fatalf("intern(%q) = %d, map says %d", p, got, want)
			}
		}
		fz := frozenSymtab(tab.freeze())
		for _, live := range []*symtab{&tab, &fz} {
			for _, p := range parts {
				for _, s := range []string{string(p), string(p) + "\x00"} {
					want, wantOK := ref[s]
					if got, ok := live.lookup(s); ok != wantOK || got != want {
						t.Fatalf("frozen=%t: lookup(%q) = %d, %t; map says %d, %t", live.frozen, s, got, ok, want, wantOK)
					}
				}
				if live.str(ref[string(p)]) != string(p) {
					t.Fatalf("frozen=%t: str(%d) = %q, want %q", live.frozen, ref[string(p)], live.str(ref[string(p)]), p)
				}
			}
		}
	})
}

// Interning a string already present, and looking an entity up by URI on a
// built or an assembled KB, allocate nothing.
func TestTableLookupsAllocateNothing(t *testing.T) {
	in := NewInterner()
	in.Intern("present")
	word := []byte("present")
	for name, fn := range map[string]func(){
		"Intern":      func() { in.Intern("present") },
		"internBytes": func() { in.t.mu.Lock(); in.t.internBytes(word); in.t.mu.Unlock() },
		"Lookup":      func() { in.Lookup("present") },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s of a present token: %v allocations, want 0", name, n)
		}
	}

	b := NewBuilder("k")
	for i := 0; i < 100; i++ {
		b.AddLiteral(b.AddEntity(fmt.Sprintf("e:%d", i)), "p", "v")
	}
	built := b.Build()
	assembled, err := AssembleKB(built.SnapshotParts())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*KB{built, assembled} {
		if n := testing.AllocsPerRun(100, func() { k.Lookup("e:42") }); n != 0 {
			t.Errorf("KB.Lookup: %v allocations, want 0", n)
		}
	}
}

// LoadPair of the committed fixture (782 triples), pinned at its allocation
// count. It was 242 with Go maps behind the dictionaries and the URIs, 191
// before each chunk of a file had tables of its own, and 276 before the
// merger handed each chunk's records, token IDs and text to the Builder:
// a chunk now allocates those arrays afresh per parse, and Build allocates
// the statement tables, but no Description array, no string-pair array, no
// growing statement and token arrays and no text arena.
func TestLoadPairAllocations(t *testing.T) {
	const pinned = 275
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	n := testing.AllocsPerRun(10, func() {
		if _, _, _, err := LoadPair(context.Background(), "testdata/pair/e1.nt", "testdata/pair/e2.nt", "nt", false); err != nil {
			t.Fatal(err)
		}
	})
	if n != pinned {
		t.Fatalf("LoadPair allocates %v times, pinned at %d: update the pin if the change is intended", n, pinned)
	}
}
