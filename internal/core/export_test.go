package core

import (
	"testing"

	"minoaner/internal/blocking"
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

// TokenDerives reports how many times the substrate derived its token index.
func (s *Substrate) TokenDerives() int { return int(s.tokenDerives.Load()) }

// NameBlocksOf is s.NameBlocks(), with the damage it reports failing t.
func NameBlocksOf(t testing.TB, s *Substrate) *blocking.Collection {
	t.Helper()
	c, err := s.NameBlocks()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TokenBlocksOf is s.TokenBlocks(), with the damage it reports failing t.
func TokenBlocksOf(t testing.TB, s *Substrate) *blocking.Collection {
	t.Helper()
	c, err := s.TokenBlocks()
	if err != nil {
		t.Fatal(err)
	}
	return c
}
