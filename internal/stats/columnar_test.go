package stats

// Property tests pinning the columnar statistics substrate to a naive
// string-keyed reference (the pre-columnar semantics), plus the before/after
// microbenchmark of the EF counting pass (per-worker local arrays vs one
// shared atomic array).

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// randomKB builds a KB with rng-chosen predicates, attributes, values and
// object URIs. Roughly half the object statements resolve into relations
// (their URI names a described entity); duplicates of every kind are
// injected on purpose, since the statistics definitions hinge on exactly
// which duplicates count.
func randomKB(rng *rand.Rand, n int) *kb.KB {
	b := kb.NewBuilder("random")
	preds := []string{"knows", "cites", "partOf", "sameTopicAs", "advises"}
	attrs := []string{"label", "title", "year", "note", "comment", "Label"}
	for i := 0; i < n; i++ {
		b.AddEntity(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < n; i++ {
		id := kb.EntityID(i)
		for s := rng.Intn(6); s > 0; s-- {
			a := attrs[rng.Intn(len(attrs))]
			// Values collide frequently across attributes and entities, and
			// some normalize to the empty string.
			v := [...]string{"alpha beta", "Alpha-Beta!", "gamma", fmt.Sprintf("v%d", rng.Intn(8)), "--", ""}[rng.Intn(6)]
			b.AddLiteral(id, a, v)
		}
		for s := rng.Intn(5); s > 0; s-- {
			p := preds[rng.Intn(len(preds))]
			// Half the objects name described entities (resolving into
			// relations, with deliberate duplicate (s, p, o) statements),
			// half stay literal.
			if rng.Intn(2) == 0 {
				obj := fmt.Sprintf("e%d", rng.Intn(n))
				b.AddObject(id, p, obj)
				if rng.Intn(3) == 0 {
					b.AddObject(id, p, obj)
				}
			} else {
				b.AddObject(id, p, fmt.Sprintf("external%d", rng.Intn(4)))
			}
		}
	}
	return b.Build()
}

// naiveRelationImportances recomputes Defs. 2.2–2.4 with the pre-columnar
// string-keyed grouping semantics.
func naiveRelationImportances(k *kb.KB) []RelationStat {
	type pair struct {
		s kb.EntityID
		o kb.EntityID
	}
	inst := map[string]map[pair]struct{}{}
	objs := map[string]map[kb.EntityID]struct{}{}
	for i := 0; i < k.Len(); i++ {
		for _, r := range k.Entity(kb.EntityID(i)).Relations {
			if inst[r.Predicate] == nil {
				inst[r.Predicate] = map[pair]struct{}{}
				objs[r.Predicate] = map[kb.EntityID]struct{}{}
			}
			inst[r.Predicate][pair{kb.EntityID(i), r.Object}] = struct{}{}
			objs[r.Predicate][r.Object] = struct{}{}
		}
	}
	n := float64(k.Len())
	var out []RelationStat
	for p, ps := range inst {
		st := RelationStat{Predicate: p, Instances: len(ps), Objects: len(objs[p])}
		if n > 0 {
			st.Support = float64(st.Instances) / (n * n)
		}
		if st.Instances > 0 {
			st.Discriminability = float64(st.Objects) / float64(st.Instances)
		}
		st.Importance = harmonicMean(st.Support, st.Discriminability)
		out = append(out, st)
	}
	return out
}

// naiveAttributeImportances recomputes the §2.2 name-worthiness statistics
// with the pre-columnar semantics (instances count raw statements; values
// are compared after NormalizeName, empty form included).
func naiveAttributeImportances(k *kb.KB) []AttributeStat {
	subj := map[string]map[kb.EntityID]struct{}{}
	vals := map[string]map[string]struct{}{}
	instances := map[string]int{}
	for i := 0; i < k.Len(); i++ {
		for _, av := range k.Entity(kb.EntityID(i)).Attrs {
			if subj[av.Attribute] == nil {
				subj[av.Attribute] = map[kb.EntityID]struct{}{}
				vals[av.Attribute] = map[string]struct{}{}
			}
			subj[av.Attribute][kb.EntityID(i)] = struct{}{}
			vals[av.Attribute][kb.NormalizeName(av.Value)] = struct{}{}
			instances[av.Attribute]++
		}
	}
	n := float64(k.Len())
	var out []AttributeStat
	for a, ss := range subj {
		st := AttributeStat{
			Attribute:      a,
			Subjects:       len(ss),
			Instances:      instances[a],
			DistinctValues: len(vals[a]),
		}
		if n > 0 {
			st.Support = float64(st.Subjects) / n
		}
		if st.Instances > 0 {
			st.Discriminability = float64(st.DistinctValues) / float64(st.Instances)
		}
		st.Importance = harmonicMean(st.Support, st.Discriminability)
		out = append(out, st)
	}
	return out
}

func TestRelationImportancesMatchNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		k := randomKB(rand.New(rand.NewSource(seed)), 40)
		got := relationImportances(t, seq, k)
		wantByPred := map[string]RelationStat{}
		for _, st := range naiveRelationImportances(k) {
			wantByPred[st.Predicate] = st
		}
		if len(got) != len(wantByPred) {
			t.Fatalf("seed %d: %d predicates, want %d", seed, len(got), len(wantByPred))
		}
		for i, st := range got {
			want := wantByPred[st.Predicate]
			want.ID = st.ID // the reference has no schema IDs
			if st != want {
				t.Errorf("seed %d: %s: got %+v, want %+v", seed, st.Predicate, st, want)
			}
			if i > 0 && got[i-1].Importance < st.Importance {
				t.Errorf("seed %d: importance order violated at %d", seed, i)
			}
		}
	}
}

func TestAttributeImportancesMatchNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		k := randomKB(rand.New(rand.NewSource(100+seed)), 40)
		got := attributeImportances(t, seq, k)
		wantByAttr := map[string]AttributeStat{}
		for _, st := range naiveAttributeImportances(k) {
			wantByAttr[st.Attribute] = st
		}
		if len(got) != len(wantByAttr) {
			t.Fatalf("seed %d: %d attributes, want %d", seed, len(got), len(wantByAttr))
		}
		for i, st := range got {
			want := wantByAttr[st.Attribute]
			want.ID = st.ID
			if st != want {
				t.Errorf("seed %d: %s: got %+v, want %+v", seed, st.Attribute, st, want)
			}
			if i > 0 && got[i-1].Importance < st.Importance {
				t.Errorf("seed %d: importance order violated at %d", seed, i)
			}
		}
	}
}

// The columnar statistics must also be independent of the worker count and
// scheduler (the determinism contract of every pipeline stage).
func TestColumnarStatsParallelDeterminism(t *testing.T) {
	k := randomKB(rand.New(rand.NewSource(7)), 120)
	refR := relationImportances(t, seq, k)
	refA := attributeImportances(t, seq, k)
	for _, workers := range []int{2, 5, 8} {
		e := parallel.New(workers)
		if got := relationImportances(t, e, k); !reflect.DeepEqual(got, refR) {
			t.Fatalf("workers=%d: relation importances differ", workers)
		}
		if got := attributeImportances(t, e, k); !reflect.DeepEqual(got, refA) {
			t.Fatalf("workers=%d: attribute importances differ", workers)
		}
	}
}

// NameLookup must agree with the per-call NamesOf reference for every entity
// and any subset of name attributes (including attributes the KB has never
// seen).
func TestNameLookupMatchesNamesOf(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		k := randomKB(rng, 30)
		nameAttrs := [][]string{
			nil,
			{"label"},
			{"label", "title"},
			{"Label", "label", "unseen-attribute"},
			{"note", "comment", "year", "title"},
		}[rng.Intn(5)]
		nl := NewNameLookup(k, nameAttrs)
		for i := 0; i < k.Len(); i++ {
			want := NamesOf(k.Entity(kb.EntityID(i)), nameAttrs)
			got := nl.Names(kb.EntityID(i))
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d entity %d attrs %v: Names = %v, want %v", seed, i, nameAttrs, got, want)
			}
		}
	}
}

// BenchmarkBuildEF compares the EF counting pass before and after the
// contention fix: one shared array with an atomic add per token occurrence
// (the pre-refactor path, kept as efCountsAtomic) vs per-worker local arrays
// merged in span order (the BuildEFCtx path).
func BenchmarkBuildEF(b *testing.B) {
	d, err := datagen.Generate(datagen.Scale(datagen.RexaDBLP(), 0.5))
	if err != nil {
		b.Fatal(err)
	}
	k := d.K2
	n := k.TokenDict().Len()
	eng := parallel.New(0)
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := efCountsLocal(context.Background(), eng, k, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("atomic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := efCountsAtomic(context.Background(), eng, k, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The two EF counting strategies must agree exactly.
func TestEFCountStrategiesAgree(t *testing.T) {
	k := randomKB(rand.New(rand.NewSource(42)), 80)
	n := k.TokenDict().Len()
	for _, workers := range []int{1, 4} {
		e := parallel.New(workers)
		local, err := efCountsLocal(context.Background(), e, k, n)
		if err != nil {
			t.Fatal(err)
		}
		atomicCounts, err := efCountsAtomic(context.Background(), e, k, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(local, atomicCounts) {
			t.Fatalf("workers=%d: counting strategies disagree", workers)
		}
	}
}
