package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"minoaner/internal/kb"
)

// The paper oracle: a naive resolver written from the paper's definitions
// with maps and strings. It shares no code with the stats, blocking, graph
// and matching kernels, and reads a KB only through Describe, URI and Len,
// the tokenizer and kb.NormalizeName. It computes
//
//   - Entity Frequency and valueSim (Def. 2.1);
//   - the importance of literal attributes (names, §2.2) and of relations
//     (Defs. 2.2–2.4), ties broken by name;
//   - name blocks, token blocks and Block Purging (§3.1, §3.3): a block is
//     one key, the entities of each KB that carry it, and is kept only when
//     both KBs do;
//   - the top-N neighbours, α, β and γ (Algorithm 1);
//   - R1–R4 (Algorithm 2) in the documented commit order.
//
// The checks in oracle_check_test.go feed each stage the kernels' output of
// the stage before, so a float near-tie decided one way by a kernel cannot
// cascade into the stages after it.

// oracleEps is how far apart two float weights may be and still agree:
// kernel and oracle add the same terms in different orders.
const oracleEps = 0x1p-40

// oSide is one KB as the oracle reads it.
type oSide struct {
	uris   []string
	descs  []kb.Description
	tokens [][]string // each entity's distinct tokens, sorted
}

// readSide describes every entity of k and tokenizes its literal values.
func readSide(t testing.TB, k *kb.KB) *oSide {
	t.Helper()
	tok := kb.NewTokenizer()
	s := &oSide{}
	for i := range k.Len() {
		d, err := k.Describe(kb.EntityID(i))
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, av := range d.Attrs {
			for _, tk := range tok.Tokens(av.Value) {
				set[tk] = true
			}
		}
		s.uris = append(s.uris, k.URI(kb.EntityID(i)))
		s.descs = append(s.descs, d)
		s.tokens = append(s.tokens, sortedKeys(set))
	}
	return s
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// postings lists, per token, the entities whose values contain it,
// ascending.
func (s *oSide) postings() map[string][]kb.EntityID {
	p := map[string][]kb.EntityID{}
	for i, toks := range s.tokens {
		for _, tk := range toks {
			p[tk] = append(p[tk], kb.EntityID(i))
		}
	}
	return p
}

// ef is the Entity Frequency of every token of the KB: the number of
// descriptions whose values contain it.
func (s *oSide) ef() map[string]int {
	ef := map[string]int{}
	for _, toks := range s.tokens {
		for _, tk := range toks {
			ef[tk]++
		}
	}
	return ef
}

func harmonic(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// byImportance orders names by decreasing importance, ties by name.
func byImportance[V any](names map[string]V, importance func(string) float64) []string {
	out := sortedKeys(names)
	slices.SortStableFunc(out, func(a, b string) int { return cmp.Compare(importance(b), importance(a)) })
	return out
}

// nameAttributes returns the k literal attributes of highest importance
// (§2.2): the harmonic mean of support |subjects(p)|/|E| and
// discriminability |values(p)|/|instances(p)|, values compared in their
// normalized form.
func (s *oSide) nameAttributes(k int) []string {
	subjects, instances := map[string]int{}, map[string]int{}
	values := map[string]map[string]bool{}
	for _, d := range s.descs {
		seen := map[string]bool{}
		for _, av := range d.Attrs {
			a := av.Attribute
			instances[a]++
			if !seen[a] {
				seen[a] = true
				subjects[a]++
			}
			if values[a] == nil {
				values[a] = map[string]bool{}
			}
			values[a][kb.NormalizeName(av.Value)] = true
		}
	}
	n := float64(len(s.descs))
	order := byImportance(instances, func(a string) float64 {
		return harmonic(float64(subjects[a])/n, float64(len(values[a]))/float64(instances[a]))
	})
	return order[:min(k, len(order))]
}

// relationOrder orders the relations by importance (Defs. 2.2–2.4): the
// harmonic mean of support |instances(p)|/|E|² and discriminability
// |objects(p)|/|instances(p)|, an instance being a distinct (subject,
// object) pair.
func (s *oSide) relationOrder() []string {
	type so struct{ s, o kb.EntityID }
	instances := map[string]map[so]bool{}
	objects := map[string]map[kb.EntityID]bool{}
	for i, d := range s.descs {
		for _, r := range d.Relations {
			if instances[r.Predicate] == nil {
				instances[r.Predicate], objects[r.Predicate] = map[so]bool{}, map[kb.EntityID]bool{}
			}
			instances[r.Predicate][so{kb.EntityID(i), r.Object}] = true
			objects[r.Predicate][r.Object] = true
		}
	}
	n := float64(len(s.descs))
	return byImportance(instances, func(p string) float64 {
		inst := float64(len(instances[p]))
		return harmonic(inst/(n*n), float64(len(objects[p]))/inst)
	})
}

// topNeighbors returns, per entity, the objects of its n most important
// relations in the given global order, distinct and ascending.
func (s *oSide) topNeighbors(order []string, n int) [][]kb.EntityID {
	rank := map[string]int{}
	for i, p := range order {
		rank[p] = i
	}
	out := make([][]kb.EntityID, len(s.descs))
	for i, d := range s.descs {
		preds := map[string]bool{}
		for _, r := range d.Relations {
			preds[r.Predicate] = true
		}
		local := sortedKeys(preds)
		slices.SortFunc(local, func(a, b string) int { return cmp.Compare(rank[a], rank[b]) })
		keep := map[string]bool{}
		for _, p := range local[:min(n, len(local))] {
			keep[p] = true
		}
		objs := map[kb.EntityID]bool{}
		for _, r := range d.Relations {
			if keep[r.Predicate] {
				objs[r.Object] = true
			}
		}
		out[i] = sortedKeys(objs)
	}
	return out
}

// names returns name(e) (§2.2): the distinct non-empty normalized values of
// the entity's name attributes, sorted.
func (s *oSide) names(e int, nameAttrs []string) []string {
	set := map[string]bool{}
	for _, av := range s.descs[e].Attrs {
		if n := kb.NormalizeName(av.Value); n != "" && slices.Contains(nameAttrs, av.Attribute) {
			set[n] = true
		}
	}
	return sortedKeys(set)
}

// oBlock is a block: one key and the entities of each KB that carry it,
// ascending.
type oBlock struct {
	key    string
	e1, e2 []kb.EntityID
}

// group returns the blocks of two keyings of the KBs (each entity's keys
// distinct) that both KBs use, sorted by key.
func group(keys1, keys2 [][]string) []oBlock {
	m := map[string]*oBlock{}
	at := func(key string) *oBlock {
		if m[key] == nil {
			m[key] = &oBlock{key: key}
		}
		return m[key]
	}
	for i, keys := range keys1 {
		for _, key := range keys {
			at(key).e1 = append(at(key).e1, kb.EntityID(i))
		}
	}
	for i, keys := range keys2 {
		for _, key := range keys {
			at(key).e2 = append(at(key).e2, kb.EntityID(i))
		}
	}
	var out []oBlock
	for _, key := range sortedKeys(m) {
		if b := m[key]; len(b.e1) > 0 && len(b.e2) > 0 {
			out = append(out, *b)
		}
	}
	return out
}

// nameBlocks is name blocking (§3.1): one block per name.
func nameBlocks(s1, s2 *oSide, nameAttrs1, nameAttrs2 []string) []oBlock {
	keys := func(s *oSide, attrs []string) [][]string {
		out := make([][]string, len(s.descs))
		for i := range out {
			out[i] = s.names(i, attrs)
		}
		return out
	}
	return group(keys(s1, nameAttrs1), keys(s2, nameAttrs2))
}

// tokenBlocks is token blocking (§3.1): one block per token.
func tokenBlocks(s1, s2 *oSide) []oBlock { return group(s1.tokens, s2.tokens) }

// purgeBudget is Block Purging's cap (§3.3): a fraction of |E1|·|E2|
// comparisons, at least one; none at a non-positive fraction.
func purgeBudget(n1, n2 int, fraction float64) int64 {
	if fraction <= 0 {
		return 0
	}
	return max(1, int64(math.Floor(float64(n1)*float64(n2)*fraction)))
}

// purge drops the blocks of more than budget comparisons and counts them.
func purge(blocks []oBlock, budget int64) (kept []oBlock, purged int) {
	for _, b := range blocks {
		if budget > 0 && int64(len(b.e1))*int64(len(b.e2)) > budget {
			purged++
			continue
		}
		kept = append(kept, b)
	}
	return kept, purged
}

// alpha lists, per entity of each KB, the entities of the other it shares
// a name with that no other entity carries: the 1×1 name blocks.
func alpha(blocks []oBlock, n1, n2 int) (a1, a2 [][]kb.EntityID) {
	a1, a2 = make([][]kb.EntityID, n1), make([][]kb.EntityID, n2)
	for _, b := range blocks {
		if len(b.e1) == 1 && len(b.e2) == 1 {
			a1[b.e1[0]] = append(a1[b.e1[0]], b.e2[0])
			a2[b.e2[0]] = append(a2[b.e2[0]], b.e1[0])
		}
	}
	for _, row := range append(a1, a2...) {
		slices.Sort(row)
	}
	return a1, a2
}

// valueSims returns valueSim(e, ·) (Def. 2.1) of an entity with the given
// tokens against every entity of the other KB it shares a kept token block
// with: Σ 1/log2(EF₁(t)·EF₂(t)+1) over the shared tokens.
func valueSims(tokens []string, fromE1 bool, blocks map[string]oBlock, ef1, ef2 map[string]int) map[kb.EntityID]float64 {
	sims := map[kb.EntityID]float64{}
	for _, tk := range tokens {
		b, ok := blocks[tk]
		if !ok {
			continue
		}
		w := 1 / math.Log2(float64(ef1[tk])*float64(ef2[tk])+1)
		others := b.e2
		if !fromE1 {
			others = b.e1
		}
		for _, o := range others {
			sims[o] += w
		}
	}
	return sims
}

// scored is a weighted candidate.
type scored struct {
	to kb.EntityID
	w  float64
}

// neighborSims returns neighborNSim(e, ·) (Algorithm 1, lines 20–33) of an
// entity with top neighbors top: every retained β edge (x, y), counted once
// whichever direction kept it (adj, x's edges ascending by y), adds its
// weight to each entity of the other KB that has y among its top neighbors
// (in, ascending), when x is one of e's.
func neighborSims(top []kb.EntityID, adj map[kb.EntityID][]scored, in map[kb.EntityID][]kb.EntityID) map[kb.EntityID]float64 {
	sims := map[kb.EntityID]float64{}
	for _, x := range top {
		for _, e := range adj[x] {
			for _, b := range in[e.to] {
				sims[b] += e.w
			}
		}
	}
	return sims
}

// oGraph is the pruned graph the oracle matches over.
type oGraph struct {
	alpha1, alpha2               [][]kb.EntityID
	beta1, beta2, gamma1, gamma2 [][]scored
}

// oMatch is a match with the rule that made it.
type oMatch struct {
	e1, e2 kb.EntityID
	rule   string
}

// resolve runs R1–R4 (Algorithm 2). R1 commits every α edge, R2 the top β
// candidate of weight ≥ 1 of each entity of the smaller KB, both in entity
// order. R3 fuses each node's β and γ rows — the candidate at index idx of
// a row of n scores rank n − idx — on the matched state after R2, and
// commits, in ascending E1 order, the pairs that pick each other, a pick
// going to the highest score, ties to the lower ID. R4 keeps a match when
// both of its directed edges are in the graph. pickTie1/pickTie2 flag the
// nodes whose R3 pick a near-tie decided; r2Ties counts the R2 top-1s a
// near-tie decided.
func (g *oGraph) resolve(theta float64) (matches []oMatch, removed, r2Ties int, pickTie1, pickTie2 map[kb.EntityID]bool) {
	n1, n2 := len(g.alpha1), len(g.alpha2)
	taken1, taken2 := map[kb.EntityID]bool{}, map[kb.EntityID]bool{}
	commit := func(e1, e2 kb.EntityID, rule string) {
		if !taken1[e1] && !taken2[e2] {
			taken1[e1], taken2[e2] = true, true
			matches = append(matches, oMatch{e1, e2, rule})
		}
	}
	for i, row := range g.alpha1 {
		for _, j := range row {
			commit(kb.EntityID(i), j, "R1")
		}
	}
	beta, taken := g.beta1, taken1
	if n1 > n2 {
		beta, taken = g.beta2, taken2
	}
	for i, row := range beta {
		if taken[kb.EntityID(i)] || len(row) == 0 {
			continue
		}
		top := slices.MinFunc(row, func(a, b scored) int { return cmp.Or(cmp.Compare(b.w, a.w), cmp.Compare(a.to, b.to)) })
		if top.w < 1 {
			continue
		}
		if len(row) > 1 && nearTie(row, top) {
			r2Ties++
		}
		if n1 <= n2 {
			commit(kb.EntityID(i), top.to, "R2")
		} else {
			commit(top.to, kb.EntityID(i), "R2")
		}
	}
	pick := func(val, ngb []scored) (kb.EntityID, bool) {
		score := map[kb.EntityID]float64{}
		for _, l := range []struct {
			row    []scored
			weight float64
		}{{val, theta}, {ngb, 1 - theta}} {
			for idx, e := range l.row {
				score[e.to] += l.weight * float64(len(l.row)-idx) / float64(len(l.row))
			}
		}
		var fused []scored
		for _, to := range sortedKeys(score) {
			fused = append(fused, scored{to, score[to]})
		}
		if len(fused) == 0 {
			return kb.NoEntity, false
		}
		best := slices.MinFunc(fused, func(a, b scored) int { return cmp.Or(cmp.Compare(b.w, a.w), cmp.Compare(a.to, b.to)) })
		return best.to, len(fused) > 1 && nearTie(fused, best)
	}
	pick1, pick2 := map[kb.EntityID]kb.EntityID{}, map[kb.EntityID]kb.EntityID{}
	pickTie1, pickTie2 = map[kb.EntityID]bool{}, map[kb.EntityID]bool{}
	for j := range n2 {
		if e := kb.EntityID(j); !taken2[e] {
			pick2[e], pickTie2[e] = pick(g.beta2[j], g.gamma2[j])
		}
	}
	for i := range n1 {
		if e := kb.EntityID(i); !taken1[e] {
			pick1[e], pickTie1[e] = pick(g.beta1[i], g.gamma1[i])
		}
	}
	for i := range n1 {
		if j, ok := pick1[kb.EntityID(i)]; ok && j != kb.NoEntity && pick2[j] == kb.EntityID(i) {
			commit(kb.EntityID(i), j, "R3")
		}
	}
	kept := matches[:0]
	for _, m := range matches {
		if g.reciprocal(m.e1, m.e2) {
			kept = append(kept, m)
		} else {
			removed++
		}
	}
	slices.SortFunc(kept, func(a, b oMatch) int { return cmp.Compare(a.e1, b.e1) })
	return kept, removed, r2Ties, pickTie1, pickTie2
}

// reciprocal reports whether both directed edges of the pair are in the
// graph, each under α, β or γ.
func (g *oGraph) reciprocal(e1, e2 kb.EntityID) bool {
	has := func(ids []kb.EntityID, to kb.EntityID, rows ...[]scored) bool {
		return slices.Contains(ids, to) || slices.ContainsFunc(slices.Concat(rows...), func(e scored) bool { return e.to == to })
	}
	return has(g.alpha1[e1], e2, g.beta1[e1], g.gamma1[e1]) && has(g.alpha2[e2], e1, g.beta2[e2], g.gamma2[e2])
}

// nearTie reports whether a candidate other than best scores within
// oracleEps of it.
func nearTie(cands []scored, best scored) bool {
	return slices.ContainsFunc(cands, func(c scored) bool { return c.to != best.to && best.w-c.w <= oracleEps })
}
