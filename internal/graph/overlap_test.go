package graph

import (
	"context"
	"reflect"
	"testing"

	"minoaner/internal/parallel"
	"minoaner/internal/testkb"
)

// The concurrent γ sides of BuildSharedCtx (workers > 1) must reproduce the
// one-worker result, where they run in sequence, exactly: same graph, same
// E1-side rows pulled from it afterwards. The CI race step runs this under
// -race at workers=2, where the removed sequencing would hide races.
func TestGammaOverlapDeterminism(t *testing.T) {
	w, d := testkb.Figure1()
	in := InputFor(seq, w, d, 2, 5, 2)
	mid := (w.Len() + 1) / 2
	spans := []parallel.Span{{Lo: 0, Hi: mid}, {Lo: mid, Hi: w.Len()}}
	ctx := context.Background()

	gRef, _, err := BuildSharedCtx(ctx, seq, in, RowsOf(in.Top1), RowsOf(in.Top2))
	if err != nil {
		t.Fatal(err)
	}
	refRows := make([]Rows[Edge], len(spans))
	for i, s := range spans {
		if refRows[i], err = gRef.Gamma1Span(ctx, seq, s, nil, Rows[Edge]{}); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{2, 4} {
		e := parallel.New(workers)
		g, _, err := BuildSharedCtx(ctx, e, in, RowsOf(in.Top1), RowsOf(in.Top2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, gRef) {
			t.Fatalf("workers=%d: graph differs from sequential build", workers)
		}
		for i, s := range spans {
			rows, err := g.Gamma1Span(ctx, e, s, nil, Rows[Edge]{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, refRows[i]) {
				t.Fatalf("workers=%d: γ1 rows of span %d differ from sequential build", workers, i)
			}
		}
	}
}
