package core

import (
	"context"
	"testing"

	"minoaner/internal/parallel"
)

// What the external tests of this directory (package core_test, which may
// import internal/snapshot where this package's own tests may not) need from
// inside the package.

// GraphBuilds reports how many times the substrate built its shared graph.
func (s *Substrate) GraphBuilds() int { return int(s.graphBuilds.Load()) }

// SkewedKBs is the skewed determinism fixture.
var SkewedKBs = skewedKBs

// Digest hashes everything an Output over sub is contracted to reproduce.
func Digest(t *testing.T, sub *Substrate, out *Output) [32]byte { return digest(t, sub, out) }

// ResolveWithSpans is ResolveWith with E1's γ rows built and matched in at
// least spans contiguous spans: a span plan, on which no output may depend.
func ResolveWithSpans(ctx context.Context, sub *Substrate, cfg Config, spans int) (*Output, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	return resolveWith(ctx, parallel.New(cfg.Workers), sub, cfg, spans)
}

// TokenDerives reports how many times the substrate derived its token index.
func (s *Substrate) TokenDerives() int { return int(s.tokenDerives.Load()) }
