package core

import "testing"

// What the external tests of this directory (package core_test, which may
// import internal/snapshot where this package's own tests may not) need from
// inside the package.

// GraphBuilds reports how many times the substrate built its shared graph.
func (s *Substrate) GraphBuilds() int { return int(s.graphBuilds.Load()) }

// SkewedKBs is the skewed determinism fixture.
var SkewedKBs = skewedKBs

// Digest hashes everything an Output is contracted to reproduce.
func Digest(t *testing.T, out *Output) [32]byte { return digest(t, out) }
