// Package datagen generates synthetic clean-clean ER benchmarks whose
// structural profiles mirror the four real KB pairs of the paper's Table 1
// (Restaurant, Rexa-DBLP, BBCmusic-DBpedia, YAGO-IMDb).
//
// The paper's datasets are not redistributable at source, so this package is
// the substitution documented in DESIGN.md: every signal MinoanER and the
// baselines consume is generated under explicit control —
//
//   - token overlap between matches (strong / nearly / weak mixes of Fig. 2),
//     drawn from frequency-stratified pools (common ≈ stop words, mid, rare);
//   - globally unique shared names for a configurable fraction of matches
//     (the bordered points of Fig. 2 that rule R1 captures);
//   - mirrored relation structure between matched entities, so neighbor
//     evidence exists exactly where the profile says it should;
//   - schema heterogeneity: per-KB attribute/relation vocabularies, type
//     counts and token-volume skew (e.g. DBpedia descriptions being ~4×
//     longer than BBCmusic ones).
//
// Generation is fully deterministic for a given Profile (seeded PRNG, no
// map-order dependence).
package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// TokenCategory classifies the value-similarity profile of one match,
// mirroring the regions of the paper's Figure 2.
type TokenCategory uint8

const (
	// Strong matches share several rare tokens: valueSim ≥ 1, found by R2.
	Strong TokenCategory = iota
	// Nearly matches share only a couple of mid-frequency tokens; they are
	// resolvable only with neighbor evidence (R3).
	Nearly
	// Weak matches share at most one mid token and have no mirrored
	// neighbors — the lower-left corner of Fig. 2 that every system misses.
	Weak
)

// String names the category.
func (c TokenCategory) String() string {
	switch c {
	case Strong:
		return "strong"
	case Nearly:
		return "nearly"
	default:
		return "weak"
	}
}

// MatchProfile records the evidence planted for one ground-truth pair.
type MatchProfile struct {
	Category TokenCategory
	// HasUniqueName marks pairs sharing a globally unique name (R1 bait).
	HasUniqueName bool
	// MirroredNeighbors marks pairs whose relation structure agrees.
	MirroredNeighbors bool
}

// Profile configures one synthetic benchmark.
type Profile struct {
	// Name labels the dataset in reports.
	Name string
	// Seed drives the PRNG; equal profiles generate identical datasets.
	Seed int64

	// E1Size / E2Size are the total entity counts per KB (must be ≥ Matches).
	E1Size, E2Size int
	// Matches is the number of ground-truth correspondences.
	Matches int

	// PName is the fraction of matches sharing a globally unique name.
	PName float64
	// PStrong / PNearly are the fractions of matches with strong / nearly
	// token profiles; the remainder is Weak.
	PStrong, PNearly float64
	// PNeighborMirror is the per-neighbor probability that a relation edge
	// of a matched entity is mirrored on the other side.
	PNeighborMirror float64

	// NeighborsPerEntity is the mean out-degree over the main relations.
	NeighborsPerEntity int
	// PDistractorLink is the probability that a per-KB-only entity has
	// out-edges into the matched population. Leaf-style datasets (OAEI
	// Restaurant, where non-GT entities are the addresses of matched
	// restaurants) use 0; web-scale KBs use higher values, which plants
	// realistic neighbor-evidence noise (γ edges between non-matches).
	PDistractorLink float64

	// Token pools size the shared frequency strata; they control which
	// blocks survive Block Purging, exactly like the token-frequency
	// distribution of a real KB pair:
	//
	//   - CommonPool: stop words. Tiny pool → huge blocks → always purged.
	//   - MidPool: domain words (genres, venues, cities). Sized so blocks
	//     exceed the purging cap: they dilute normalized similarities and
	//     confuse the BSL baseline (similarity functions see all tokens)
	//     while contributing no retained blocking evidence.
	//   - NamePool + YearPool: name constituents. Name *values* stay unique
	//     (the R1 signal); name *tokens* form purged blocks, so sharing a
	//     name does not imply value similarity — the bordered low-valueSim
	//     points of Fig. 2.
	//   - SemiPool: planted identity evidence with entity frequency of a
	//     handful; blocks are small and survive purging. Shared semi tokens
	//     keep absolute valueSim near 1 while normalized similarities stay
	//     inseparable from noise — the YAGO-IMDb regime.
	CommonPool, MidPool, NamePool, YearPool, SemiPool int
	// LowPool sizes the low-frequency stratum: tokens whose blocks stay
	// *under* the purging cap, so they survive into the blocking graph and
	// supply the bulk of the suggested comparisons — the reason blocking
	// precision is tiny in Table 2 while recall stays high. Each entity
	// draws LowOwn1/LowOwn2 of them.
	LowPool          int
	LowOwn1, LowOwn2 int
	// PSemiShared is the probability that a strong match's shared token is
	// drawn from the semi pool instead of being globally unique (rare).
	PSemiShared float64
	// StrongRare / StrongMid size the planted shared evidence of strong
	// matches: StrongRare + rng(0..2) rare/semi tokens plus StrongMid +
	// rng(0..1) mid tokens. Low-Variety datasets (Restaurant) share most of
	// their content, high-Variety ones only a few tokens (Figure 2's x-axis
	// spread across datasets).
	StrongRare, StrongMid int
	// NearlyTokens fixes the number of semi tokens a nearly-similar match
	// shares (0 = 1 + rng(0..1)). A value of 1 makes nearly matches
	// indistinguishable from their semi-token co-holders under any value
	// similarity — only neighbor evidence resolves them, the defining
	// property of the YAGO-IMDb regime.
	NearlyTokens int
	// PHardDistractor is the per-match probability that the larger KB also
	// contains a near-duplicate distractor ("the sequel problem" of movie
	// KBs): an entity sharing most of the match's noise tokens and one of
	// its planted evidence tokens, but not the full evidence. Normalized
	// similarities rank such distractors above the true match, which is
	// what breaks the fine-tuned BSL on YAGO-IMDb in Table 3; MinoanER's
	// absolute valueSim and reciprocity keep them apart.
	PHardDistractor float64
	// PRawValueNoise is the per-literal probability that a side-2 value is
	// mangled in casing/punctuation. Token- and name-normalizing systems
	// (MinoanER, BSL) are unaffected; systems relying on exact literal
	// equality (PARIS's seed alignment) lose their evidence — the mechanism
	// behind PARIS's collapse on BBCmusic-DBpedia in Table 3, whose BTC2012
	// literals carry heavy formatting noise.
	PRawValueNoise float64

	// Own-token counts per description (side-specific volume; BBC-DBpedia
	// style skew uses MidOwn2 ≫ MidOwn1).
	MidOwn1, MidOwn2       int
	CommonOwn1, CommonOwn2 int
	RareOwn1, RareOwn2     int

	// Schema profile (Table 1 rows): literal attributes, relation
	// predicates, entity types and vocabulary namespaces per KB.
	Attrs1, Attrs2 int
	Rels1, Rels2   int
	Types1, Types2 int
	Vocab1, Vocab2 int
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	if p.Matches <= 0 || p.E1Size < p.Matches || p.E2Size < p.Matches {
		return fmt.Errorf("datagen: sizes (%d, %d) must cover %d matches", p.E1Size, p.E2Size, p.Matches)
	}
	if p.PStrong+p.PNearly > 1+1e-9 {
		return fmt.Errorf("datagen: PStrong+PNearly = %v exceeds 1", p.PStrong+p.PNearly)
	}
	if p.Attrs1 < 2 || p.Attrs2 < 2 || p.Rels1 < 1 || p.Rels2 < 1 {
		return fmt.Errorf("datagen: need ≥2 attributes and ≥1 relation per KB")
	}
	return nil
}

// Dataset is one generated benchmark: two KBs, ground truth and the planted
// evidence profile of every match.
type Dataset struct {
	Profile  Profile
	K1, K2   *kb.KB
	GT       *eval.GroundTruth
	Profiles map[eval.Pair]MatchProfile
}

// generator carries the mutable generation state.
type generator struct {
	p   Profile
	rng *rand.Rand
	b1  *kb.Builder
	b2  *kb.Builder

	// per-identity bookkeeping (index < p.Matches ⇒ matched identity).
	cat       []TokenCategory
	hasName   []bool
	neighbors [][]int // identity index → neighbor identity indices (mirror template)

	usedNames map[string]bool
	rareSeq   int
	// sequelPlans holds near-duplicate distractors to be emitted into E2
	// (see Profile.PHardDistractor).
	sequelPlans []sequelPlan
	// perm1/perm2 map logical entity indices (0..Matches-1 are the matched
	// identities) to entity IDs. Without this shuffle the ground truth would
	// be ID-aligned, and any matcher breaking ties by entity ID — Unique
	// Mapping Clustering does — would receive artificial recall.
	perm1, perm2 []int
}

// id1/id2 translate a logical index into the entity ID of each KB.
func (g *generator) id1(logical int) kb.EntityID { return kb.EntityID(g.perm1[logical]) }
func (g *generator) id2(logical int) kb.EntityID { return kb.EntityID(g.perm2[logical]) }

// sequelPlan describes one near-duplicate E2 distractor: most of the noise
// tokens of a matched identity plus at most one of its evidence tokens, and
// optionally one of its relation targets.
type sequelPlan struct {
	identity int
	tokens   []string
	neighbor int // E2 neighbor target, -1 if none
}

// Generate builds the dataset for the profile. It panics only on internal
// invariant violations; profile errors — a name space too small for the
// entity counts among them — are returned.
func Generate(p Profile) (*Dataset, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Both KBs of the pair intern into one shared token dictionary (so the
	// resolution pipeline's TokenIndex gets the identity token space and
	// skips its cross-dictionary translation) and one shared schema
	// dictionary (so predicates, attribute names and normalized values live
	// in a single dense ID space across the pair).
	dict := kb.NewInterner()
	schema := kb.NewSchema()
	g := &generator{
		p:         p,
		rng:       rand.New(rand.NewSource(p.Seed)),
		b1:        kb.NewBuilderWithDicts(p.Name+"-E1", dict, schema),
		b2:        kb.NewBuilderWithDicts(p.Name+"-E2", dict, schema),
		usedNames: make(map[string]bool),
	}
	g.perm1 = g.rng.Perm(p.E1Size)
	g.perm2 = g.rng.Perm(p.E2Size)
	g.assignCategories()
	// Every entity draws a unique name, a name-identified match one for the
	// pair. With fewer names than that makeUniqueName would never return.
	names := p.E1Size + p.E2Size
	for _, shared := range g.hasName {
		if shared {
			names--
		}
	}
	if names > p.nameCapacity() {
		return nil, fmt.Errorf("datagen: profile %s needs %d unique names, NamePool²·YearPool = %d²·%d has %d (datagen.Scale grows the pools with the sizes)",
			p.Name, names, p.NamePool, p.YearPool, p.nameCapacity())
	}
	g.buildNeighborTemplate()
	profiles := g.emitEntities()
	d := &Dataset{
		Profile:  p,
		K1:       g.b1.Build(),
		K2:       g.b2.Build(),
		Profiles: profiles,
	}
	pairs := make([]eval.Pair, 0, p.Matches)
	for i := 0; i < p.Matches; i++ {
		pairs = append(pairs, eval.Pair{E1: g.id1(i), E2: g.id2(i)})
	}
	d.GT = eval.NewGroundTruth(pairs)
	return d, nil
}

// assignCategories draws the per-match evidence profile from the mix.
func (g *generator) assignCategories() {
	m := g.p.Matches
	g.cat = make([]TokenCategory, m)
	g.hasName = make([]bool, m)
	for i := 0; i < m; i++ {
		r := g.rng.Float64()
		switch {
		case r < g.p.PStrong:
			g.cat[i] = Strong
		case r < g.p.PStrong+g.p.PNearly:
			g.cat[i] = Nearly
		default:
			g.cat[i] = Weak
		}
		g.hasName[i] = g.rng.Float64() < g.p.PName
	}
}

// buildNeighborTemplate wires matched identities into a relation graph.
// Nearly matches point preferentially at strong matches so their neighbor
// evidence is itself resolvable — the mechanism behind rule R3.
func (g *generator) buildNeighborTemplate() {
	m := g.p.Matches
	var strongIdx []int
	for i, c := range g.cat {
		if c == Strong {
			strongIdx = append(strongIdx, i)
		}
	}
	g.neighbors = make([][]int, m)
	for i := 0; i < m; i++ {
		deg := 1 + g.rng.Intn(maxInt(g.p.NeighborsPerEntity, 1))
		seen := map[int]bool{i: true}
		for d := 0; d < deg; d++ {
			var target int
			if g.cat[i] == Nearly && len(strongIdx) > 0 && g.rng.Float64() < 0.8 {
				target = strongIdx[g.rng.Intn(len(strongIdx))]
			} else {
				target = g.rng.Intn(m)
			}
			if seen[target] {
				continue
			}
			seen[target] = true
			g.neighbors[i] = append(g.neighbors[i], target)
		}
		sort.Ints(g.neighbors[i])
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
