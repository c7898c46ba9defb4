package memplan

import (
	"testing"

	"temco/internal/ir"
)

// checkLayoutsAt: the two planned layouts reproduce AssignOffsets at every
// batch size — the arena, the live peak, every node's offset and storage
// class, and the alias plan's copy accounting.
func checkLayoutsAt(t *testing.T, g *ir.Graph) {
	t.Helper()
	l, err := PlanLayouts(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 3, 4, 5, 8, 16} {
		got, want := l.At(batch), AssignOffsets(g, batch)
		if got.Batch != batch || got.ArenaBytes != want.ArenaBytes || got.PeakInternal != want.PeakInternal {
			t.Fatalf("batch %d: At gives batch %d arena %d peak %d, AssignOffsets arena %d peak %d",
				batch, got.Batch, got.ArenaBytes, got.PeakInternal, want.ArenaBytes, want.PeakInternal)
		}
		for _, n := range g.Nodes {
			if got.Offsets[n] != want.Offsets[n] {
				t.Fatalf("batch %d: %s at %d, AssignOffsets places it at %d", batch, n, got.Offsets[n], want.Offsets[n])
			}
			if gs, ws := got.Alias.StorageOf(n), want.Alias.StorageOf(n); gs != ws {
				t.Fatalf("batch %d: %s storage %+v, AssignOffsets %+v", batch, n, gs, ws)
			}
			if len(got.Alias.concatSkip(n)) != len(want.Alias.concatSkip(n)) {
				t.Fatalf("batch %d: %s concat skip differs", batch, n)
			}
		}
		if (got.Alias == nil) != (want.Alias == nil) {
			t.Fatalf("batch %d: alias plan present %v, want %v", batch, got.Alias != nil, want.Alias != nil)
		}
		if ga, wa := got.Alias, want.Alias; ga != nil && (ga.Batch != wa.Batch || ga.Views != wa.Views ||
			ga.InPlace != wa.InPlace || ga.EliminatedBytes != wa.EliminatedBytes || ga.EliminatedCopies != wa.EliminatedCopies) {
			t.Fatalf("batch %d: alias plan %+v, AssignOffsets %+v", batch, *ga, *wa)
		}
		if err := got.Check(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
}

func (p *AliasPlan) concatSkip(n *ir.Node) []bool {
	if p == nil {
		return nil
	}
	return p.ConcatSkip[n]
}

func TestLayoutsAtMatchesAssignOffsets(t *testing.T) {
	corpus := [][]byte{
		{3, 0, 22, 64, 17, 96, 41, 7, 250, 13},
		{1, 6, 6, 7, 4, 0, 5, 7, 9, 2, 3, 66, 77, 88},
		{255, 9, 9, 9, 4, 4, 4, 7, 6, 1, 0, 128, 200, 33, 14},
		{2, 7, 7, 2, 27, 3, 7, 6, 57, 7, 2, 8, 17},
	}
	for _, on := range []bool{true, false} {
		withAliasing(t, on, func() {
			for _, data := range corpus {
				checkLayoutsAt(t, fuzzGraph(data))
			}
		})
	}
}
