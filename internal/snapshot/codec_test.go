package snapshot

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// TestEdgeBytesAreTheRecords pins the edge record of the format — the target
// as an int32 at +0, the weight's float64 bits at +4, 12 bytes a record — for
// the explicit encoder, for the in-memory bytes a little-endian host writes
// and maps, and for both decoders.
func TestEdgeBytesAreTheRecords(t *testing.T) {
	edges := []graph.Edge{
		graph.NewEdge(0, 1),
		graph.NewEdge(7, 0.0625),
		graph.NewEdge(1<<31-1, math.MaxFloat64),
		graph.NewEdge(-1, math.SmallestNonzeroFloat64),
		graph.NewEdge(3, math.Float64frombits(0x0123456789abcdef)),
	}
	enc := encEdges(edges)
	if len(enc) != edgeSize*len(edges) {
		t.Fatalf("%d bytes for %d edges", len(enc), len(edges))
	}
	for i, e := range edges {
		rec := enc[i*edgeSize:]
		if to := kb.EntityID(int32(binary.LittleEndian.Uint32(rec))); to != e.To {
			t.Errorf("edge %d: target %d, want %d", i, to, e.To)
		}
		if bits := binary.LittleEndian.Uint64(rec[edgeWeightAt:]); bits != math.Float64bits(e.Weight()) {
			t.Errorf("edge %d: weight bits %#x, want %#x", i, bits, math.Float64bits(e.Weight()))
		}
	}
	if littleEndian && !bytes.Equal(rawBytes(edges), enc) {
		t.Errorf("in-memory edges % x, encoded % x", rawBytes(edges), enc)
	}
	for _, copyMode := range []bool{false, true} {
		got, err := viewEdges(bytes.Clone(enc), copyMode || !littleEndian, "edges")
		if err != nil {
			t.Fatal(err)
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Errorf("copyMode=%v: edge %d decodes to (%d, %v), want (%d, %v)", copyMode, i, got[i].To, got[i].Weight(), edges[i].To, edges[i].Weight())
			}
		}
	}
	if _, err := viewEdges(enc[:len(enc)-4], true, "edges"); err == nil {
		t.Error("a section that is not whole records decodes")
	}
}
