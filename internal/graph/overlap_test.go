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
// E1-side rows computed from it afterwards. The CI race step runs this under
// -race at workers=2, where the removed sequencing would hide races.
func TestGammaOverlapDeterminism(t *testing.T) {
	w, d := testkb.Figure1()
	in := InputFor(seq, w, d, 2, 5, 2)
	ctx := context.Background()

	gRef, _, err := BuildSharedCtx(ctx, seq, in, RowsOf(in.Top1), RowsOf(in.Top2))
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := gRef.Gamma1Rows(ctx, seq, nil)
	if err != nil {
		t.Fatal(err)
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
		rows, err := g.Gamma1Rows(ctx, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, refRows) {
			t.Fatalf("workers=%d: γ1 rows differ from sequential build", workers)
		}
	}
}
