package datagen

import "math"

// The four presets mirror the structural profiles of the paper's Table 1 at
// single-machine scale. Entity counts are scaled down (the originals reach
// 5.3M entities); the scale-invariant characteristics — relative KB size
// skew, attribute/relation/type/vocabulary counts, tokens-per-entity ratios
// and the Figure 2 similarity mix of the matches — follow the paper:
//
//	                 paper E1×E2            here E1×E2      match mix
//	Restaurant       339 × 2,256            identical        strongly similar, easy
//	Rexa-DBLP        18,492 × 2,650,832     1,500 × 30,000   (1:20 skew) strong + nearly
//	BBCmusic-DBpedia 58,793 × 256,602       4,000 × 12,000   nearly similar, ~4× token skew
//	YAGO-IMDb        5,208,100 × 5,328,774  10,000 × 10,500  low norm. value sim, high neighbor sim
//
// Match-mix parameters (PName, PStrong, PNearly) are calibrated against
// Table 4 of the paper: the per-rule recalls there reveal how many matches
// are name-identifiable (R1), strongly value-similar (R2) and
// neighbor-dependent (R3) in each dataset.
//
// Pool sizes are calibrated against the default purging cap (blocks larger
// than 0.1% of the Cartesian product are stop-word blocks): common, mid,
// name-token and year blocks always exceed the cap, while planted semi/rare
// evidence stays under it. See the Profile field docs for the mechanism.

// Restaurant mirrors the OAEI Restaurant benchmark: tiny, low Variety, and
// dominated by strongly similar matches (every system scores ≈100 F1).
func Restaurant() Profile {
	return Profile{
		Name: "Restaurant", Seed: 101,
		E1Size: 339, E2Size: 2256, Matches: 89,
		PName: 0.68, PStrong: 0.97, PNearly: 0.02,
		PNeighborMirror: 0.90, NeighborsPerEntity: 2, PDistractorLink: 0,
		CommonPool: 25, MidPool: 120, NamePool: 30, YearPool: 25,
		SemiPool: 60, LowPool: 150, LowOwn1: 1, LowOwn2: 1,
		PSemiShared: 0.10, PRawValueNoise: 0.10,
		StrongRare: 5, StrongMid: 4, PHardDistractor: 0.05,
		MidOwn1: 4, MidOwn2: 4, CommonOwn1: 4, CommonOwn2: 4, RareOwn1: 3, RareOwn2: 3,
		Attrs1: 7, Attrs2: 7, Rels1: 2, Rels2: 2,
		Types1: 3, Types2: 3, Vocab1: 2, Vocab2: 2,
	}
}

// RexaDBLP mirrors the Rexa-DBLP publication benchmark: the most size-skewed
// pair (DBLP is 20× larger here, 143× in the paper), strongly similar in
// values and names, with publication→author neighbor structure.
func RexaDBLP() Profile {
	return Profile{
		Name: "Rexa-DBLP", Seed: 202,
		E1Size: 1500, E2Size: 30000, Matches: 1200,
		PName: 0.85, PStrong: 0.50, PNearly: 0.45,
		PNeighborMirror: 0.85, NeighborsPerEntity: 3, PDistractorLink: 0.15,
		CommonPool: 30, MidPool: 400, NamePool: 40, YearPool: 25,
		SemiPool: 600, LowPool: 300, LowOwn1: 2, LowOwn2: 2,
		PSemiShared: 0.10, PRawValueNoise: 0.10,
		StrongRare: 3, StrongMid: 2, PHardDistractor: 0.15,
		MidOwn1: 18, MidOwn2: 25, CommonOwn1: 6, CommonOwn2: 8, RareOwn1: 12, RareOwn2: 20,
		Attrs1: 20, Attrs2: 30, Rels1: 4, Rels2: 6,
		Types1: 4, Types2: 11, Vocab1: 4, Vocab2: 4,
	}
}

// BBCMusicDBpedia mirrors the highest-Variety pair: DBpedia uses an order of
// magnitude more attributes, far more relations/types/vocabularies, and ~4×
// more tokens per description, so normalized set similarities collapse for
// matches (§6, Table 1 discussion) — the dataset where MinoanER's margin
// over the baselines is largest.
func BBCMusicDBpedia() Profile {
	return Profile{
		Name: "BBCmusic-DBpedia", Seed: 303,
		E1Size: 4000, E2Size: 12000, Matches: 2500,
		PName: 0.66, PStrong: 0.40, PNearly: 0.55,
		PNeighborMirror: 0.85, NeighborsPerEntity: 3, PDistractorLink: 0.25,
		CommonPool: 40, MidPool: 400, NamePool: 30, YearPool: 25,
		SemiPool: 1250, LowPool: 400, LowOwn1: 2, LowOwn2: 3,
		PSemiShared: 0.10, PRawValueNoise: 0.95,
		StrongRare: 2, StrongMid: 1, PHardDistractor: 0.35,
		MidOwn1: 12, MidOwn2: 60, CommonOwn1: 5, CommonOwn2: 15, RareOwn1: 8, RareOwn2: 40,
		Attrs1: 15, Attrs2: 80, Rels1: 5, Rels2: 40,
		Types1: 4, Types2: 300, Vocab1: 4, Vocab2: 6,
	}
}

// YAGOIMDb mirrors the largest, most balanced pair: short descriptions whose
// matches share a few semi-rare tokens (absolute valueSim around 1, so R2
// fires) while a tiny mid pool makes every entity pair share noise words —
// normalized similarities cannot separate matches from non-matches, the
// regime where the fine-tuned BSL collapses. Neighbor structure is strong.
func YAGOIMDb() Profile {
	return Profile{
		Name: "YAGO-IMDb", Seed: 404,
		E1Size: 10000, E2Size: 10500, Matches: 7000,
		PName: 0.66, PStrong: 0.50, PNearly: 0.47,
		PNeighborMirror: 0.90, NeighborsPerEntity: 3, PDistractorLink: 0.25,
		CommonPool: 25, MidPool: 30, NamePool: 40, YearPool: 25,
		SemiPool: 5000, LowPool: 250, LowOwn1: 1, LowOwn2: 1,
		PSemiShared: 0.75, PRawValueNoise: 0.10,
		StrongRare: 2, StrongMid: 1, NearlyTokens: 1, PHardDistractor: 0.45,
		MidOwn1: 7, MidOwn2: 6, CommonOwn1: 3, CommonOwn2: 2, RareOwn1: 3, RareOwn2: 2,
		Attrs1: 12, Attrs2: 8, Rels1: 4, Rels2: 6,
		Types1: 300, Types2: 15, Vocab1: 3, Vocab2: 1,
	}
}

// Presets returns all four paper datasets in Table 1 order.
func Presets() []Profile {
	return []Profile{Restaurant(), RexaDBLP(), BBCMusicDBpedia(), YAGOIMDb()}
}

// Scale shrinks (or grows) a profile's entity counts by factor, keeping the
// structural profile intact — used by fast tests and the scalability sweep.
// The semi pool scales along so planted-evidence frequencies stay constant;
// the noise pools do not, because their block sizes already scale with the
// entity counts relative to the purging cap. The one exception are the name
// pools, and only when the scaled profile would use more than maxNameLoad of
// the NamePool²·YearPool unique names they can form: both then grow by the
// same factor, just enough to get back under that load.
func Scale(p Profile, factor float64) Profile {
	scale := func(n int) int {
		s := int(float64(n) * factor)
		if s < 1 {
			s = 1
		}
		return s
	}
	p.Matches = scale(p.Matches)
	p.E1Size = maxInt(scale(p.E1Size), p.Matches)
	p.E2Size = maxInt(scale(p.E2Size), p.Matches)
	p.SemiPool = scale(p.SemiPool)
	if over := p.nameDemand() / (maxNameLoad * float64(p.nameCapacity())); over > 1 {
		grow := math.Cbrt(over) // the capacity is cubic in the pool sizes
		p.NamePool = int(math.Ceil(float64(p.NamePool) * grow))
		p.YearPool = int(math.Ceil(float64(p.YearPool) * grow))
	}
	return p
}

// maxNameLoad is the share of a profile's unique names Scale lets it use:
// above it the rejection sampling of makeUniqueName slows sharply.
const maxNameLoad = 0.8

// nameCapacity is the number of distinct names makeUniqueName can form.
func (p Profile) nameCapacity() int {
	return maxInt(p.NamePool, 1) * maxInt(p.NamePool, 1) * maxInt(p.YearPool, 1)
}

// nameDemand is the expected number of unique names a dataset draws: one per
// entity, a name-identified match sharing one across the pair.
func (p Profile) nameDemand() float64 {
	return float64(p.E1Size+p.E2Size) - p.PName*float64(p.Matches)
}
