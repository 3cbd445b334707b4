// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic benchmark presets: Table 1 (dataset
// statistics), Table 2 (block statistics), Table 3 (system comparison),
// Table 4 (matching-rule evaluation), Figure 2 (similarity distribution of
// matches), Figure 5 (parameter sensitivity) and Figure 6 (scalability).
//
// Experiments are exposed through a Suite that generates each dataset once
// and shares it across experiments; Options.ScaleFactor shrinks the presets
// for fast test runs while preserving their structural profile.
package experiments

import (
	"fmt"

	"minoaner/internal/datagen"
)

// Options configures a Suite.
type Options struct {
	// ScaleFactor scales the preset entity counts (1.0 = paper-profile
	// scale as shipped; tests use ~0.1). Zero means 1.0.
	ScaleFactor float64
	// Workers is the parallel engine size for pipeline runs (0 = all cores).
	Workers int
	// Datasets restricts the suite to the named presets (nil = all four).
	Datasets []string
}

// Suite lazily generates and caches the benchmark datasets.
type Suite struct {
	opts     Options
	profiles []datagen.Profile
	cache    map[string]*datagen.Dataset
}

// NewSuite builds a Suite over the selected presets.
func NewSuite(opts Options) (*Suite, error) {
	if opts.ScaleFactor == 0 {
		opts.ScaleFactor = 1.0
	}
	all := datagen.Presets()
	var profiles []datagen.Profile
	if len(opts.Datasets) == 0 {
		profiles = all
	} else {
		for _, want := range opts.Datasets {
			found := false
			for _, p := range all {
				if p.Name == want {
					profiles = append(profiles, p)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("experiments: unknown dataset %q", want)
			}
		}
	}
	for i := range profiles {
		if opts.ScaleFactor != 1.0 {
			profiles[i] = datagen.Scale(profiles[i], opts.ScaleFactor)
		}
	}
	return &Suite{opts: opts, profiles: profiles, cache: map[string]*datagen.Dataset{}}, nil
}

// Dataset returns the generated dataset for one profile, generating and
// caching it on first use.
func (s *Suite) Dataset(name string) (*datagen.Dataset, error) {
	if d, ok := s.cache[name]; ok {
		return d, nil
	}
	for _, p := range s.profiles {
		if p.Name == name {
			d, err := datagen.Generate(p)
			if err != nil {
				return nil, err
			}
			s.cache[name] = d
			return d, nil
		}
	}
	return nil, fmt.Errorf("experiments: dataset %q not in suite", name)
}

// Names lists the suite's dataset names in Table 1 order.
func (s *Suite) Names() []string {
	out := make([]string, len(s.profiles))
	for i, p := range s.profiles {
		out[i] = p.Name
	}
	return out
}
