package kb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestInternerAssignsDenseStableIDs(t *testing.T) {
	in := NewInterner()
	a := in.Intern("alpha")
	b := in.Intern("beta")
	if a == b {
		t.Fatalf("distinct tokens share ID %d", a)
	}
	if got := in.Intern("alpha"); got != a {
		t.Errorf("re-intern changed ID: %d vs %d", got, a)
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if in.TokenString(a) != "alpha" || in.TokenString(b) != "beta" {
		t.Errorf("TokenString round trip failed: %q %q", in.TokenString(a), in.TokenString(b))
	}
	if id, ok := in.Lookup("beta"); !ok || id != b {
		t.Errorf("Lookup(beta) = (%d, %v)", id, ok)
	}
	if _, ok := in.Lookup("gamma"); ok {
		t.Error("Lookup of unseen token succeeded")
	}
}

// Two builders sharing one Interner (the clean-clean ER fast path) must not
// race and must land the same token at the same ID in both KBs.
func TestInternerSharedAcrossConcurrentBuilders(t *testing.T) {
	dict := NewInterner()
	build := func(name string) *KB {
		b := NewBuilderWithInterner(name, dict)
		for i := 0; i < 200; i++ {
			e := b.AddEntity(fmt.Sprintf("%s:e%d", name, i))
			b.AddLiteral(e, "label", fmt.Sprintf("shared%d token common", i%50))
		}
		return b.Build()
	}
	var wg sync.WaitGroup
	kbs := make([]*KB, 2)
	for i, name := range []string{"A", "B"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			kbs[i] = build(name)
		}(i, name)
	}
	wg.Wait()
	if kbs[0].TokenDict() != dict || kbs[1].TokenDict() != dict {
		t.Fatal("KBs did not keep the shared dictionary")
	}
	idA, okA := dict.Lookup("common")
	if !okA {
		t.Fatal("shared token missing from dictionary")
	}
	for _, k := range kbs {
		d := k.Entity(0)
		found := false
		for _, id := range d.TokenIDs() {
			if id == idA {
				found = true
			}
		}
		if !found {
			t.Errorf("KB %s entity 0 lacks the shared token ID", k.Name())
		}
	}
}

// TokenIDs must stay ordered by token string (the invariant every
// accumulation stage relies on), and Tokens() must materialize that order.
func TestTokenIDsStringOrdered(t *testing.T) {
	b := NewBuilder("X")
	e := b.AddEntity("e")
	b.AddLiteral(e, "p", "zulu alpha mike zulu Alpha")
	k := b.Build()
	d := k.Entity(e)
	want := []string{"alpha", "mike", "zulu"}
	if got := d.Tokens(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
	ids := d.TokenIDs()
	if len(ids) != len(want) {
		t.Fatalf("TokenIDs len = %d, want %d", len(ids), len(want))
	}
	for i, id := range ids {
		if d.Dict().TokenString(id) != want[i] {
			t.Errorf("TokenIDs[%d] = %q, want %q", i, d.Dict().TokenString(id), want[i])
		}
	}
	for _, tok := range want {
		if !d.HasToken(tok) {
			t.Errorf("HasToken(%q) = false", tok)
		}
	}
	if d.HasToken("absent") {
		t.Error("HasToken(absent) = true")
	}
}
