package memplan

import (
	"testing"

	"temco/internal/ir"
)

// withAliasing runs f with the aliasing switch forced to on, restoring the
// ambient setting afterwards (the suite may run under TEMCO_NOALIAS=1).
func withAliasing(t *testing.T, on bool, f func()) {
	t.Helper()
	prev := SetAliasing(on)
	defer SetAliasing(prev)
	f()
}

// TestAliasInPlaceChain: conv → relu → silu. Both elementwise results must
// run in place on the conv's region (each input is at its last use), so
// the whole chain owns exactly one region.
func TestAliasInPlaceChain(t *testing.T) {
	withAliasing(t, true, func() {
		b := ir.NewBuilder("chain", 1)
		in := b.Input(4, 8, 8)
		c := b.Conv(in, 4, 3, 1, 1)
		r := b.ReLU(c)
		s := b.SiLU(r)
		b.Output(s)
		p := BuildAliasPlan(b.G, 1)
		if p == nil {
			t.Fatal("aliasing enabled but plan is nil")
		}
		if p.InPlace != 2 {
			t.Fatalf("InPlace = %d, want 2 (relu and silu)", p.InPlace)
		}
		for _, n := range []*ir.Node{r, s} {
			if root, off := p.Root(n); root != c || off != 0 {
				t.Fatalf("%s roots at %s+%d, want %s+0", n, root, off, c)
			}
		}
		a := AssignOffsets(b.G, 1)
		if err := a.Check(); err != nil {
			t.Fatal(err)
		}
		if a.Offsets[r] != a.Offsets[c] || a.Offsets[s] != a.Offsets[c] {
			t.Fatalf("in-place chain not colocated: conv %d relu %d silu %d",
				a.Offsets[c], a.Offsets[r], a.Offsets[s])
		}
	})
}

// TestAliasInPlaceRefusedWhileLive: relu's input feeds both the relu and a
// later add — overwriting it in place would corrupt the add's operand, so
// the plan must keep the relu owned.
func TestAliasInPlaceRefusedWhileLive(t *testing.T) {
	withAliasing(t, true, func() {
		b := ir.NewBuilder("livein", 1)
		in := b.Input(4, 8, 8)
		c := b.Conv(in, 4, 3, 1, 1)
		r := b.ReLU(c) // c still live: read again by the add below
		a := b.Add(r, c)
		b.Output(a)
		p := BuildAliasPlan(b.G, 1)
		if got := p.StorageOf(r).Class; got != StorageOwned {
			t.Fatalf("relu overwrites a live tensor: storage class %v, want owned", got)
		}
		// The add's inputs r and c both die at the add, so the add itself
		// may run in place on either.
		if got := p.StorageOf(a).Class; got != StorageView {
			t.Fatalf("add of two dying tensors stayed owned")
		}
	})
}

// TestAliasGraphOutputNeverOverwritten: a graph output is read after the
// schedule ends (End == len(Nodes)), so nothing may run in place on it.
func TestAliasGraphOutputNeverOverwritten(t *testing.T) {
	withAliasing(t, true, func() {
		b := ir.NewBuilder("outsafe", 1)
		in := b.Input(4, 8, 8)
		c := b.Conv(in, 4, 3, 1, 1)
		b.Output(c)
		r := b.ReLU(c)
		b.Output(r)
		p := BuildAliasPlan(b.G, 1)
		if got := p.StorageOf(r).Class; got != StorageOwned {
			t.Fatalf("relu overwrites graph output %s: class %v, want owned", c, got)
		}
	})
}

// TestAliasConcatViewsBatch1: at batch 1 both concat inputs become views
// at their row offsets, the concat copies nothing, and the three tensors
// share one region.
func TestAliasConcatViewsBatch1(t *testing.T) {
	withAliasing(t, true, func() {
		b := ir.NewBuilder("cat", 1)
		in := b.Input(2, 4, 4)
		x := b.Conv(in, 2, 3, 1, 1)
		y := b.Conv(in, 3, 3, 1, 1)
		cat := b.Concat(x, y)
		b.Output(cat)
		p := BuildAliasPlan(b.G, 1)
		skip := p.ConcatSkip[cat]
		if len(skip) != 2 || !skip[0] || !skip[1] {
			t.Fatalf("ConcatSkip = %v, want both inputs skipped", skip)
		}
		if r, off := p.Root(x); r != cat || off != 0 {
			t.Fatalf("x roots at %s+%d, want %s+0", r, off, cat)
		}
		if r, off := p.Root(y); r != cat || off != x.OutBytes(1) {
			t.Fatalf("y roots at %s+%d, want %s+%d", r, off, cat, x.OutBytes(1))
		}
		a := AssignOffsets(b.G, 1)
		if err := a.Check(); err != nil {
			t.Fatal(err)
		}
		if a.Offsets[y] != a.Offsets[cat]+x.OutBytes(1) {
			t.Fatalf("y offset %d, want concat+%d", a.Offsets[y], x.OutBytes(1))
		}
	})
}

// TestAliasConcatCopiesAtBatchN: at batch > 1 concat rows interleave per
// sample and a flat view cannot represent an input — the plan must leave
// every input owned and register no skips.
func TestAliasConcatCopiesAtBatchN(t *testing.T) {
	withAliasing(t, true, func() {
		b := ir.NewBuilder("catb", 1)
		in := b.Input(2, 4, 4)
		x := b.Conv(in, 2, 3, 1, 1)
		y := b.Conv(in, 3, 3, 1, 1)
		cat := b.Concat(x, y)
		b.Output(cat)
		p := BuildAliasPlan(b.G, 4)
		if sk := p.ConcatSkip[cat]; sk != nil {
			t.Fatalf("batch 4 concat registered skips %v", sk)
		}
		for _, n := range []*ir.Node{x, y} {
			if got := p.StorageOf(n).Class; got != StorageOwned {
				t.Fatalf("%s aliased at batch 4: class %v", n, got)
			}
		}
	})
}

// TestAliasRepeatedConcatInput: concat(x, x) may alias only the first
// occurrence — the second must be copied into its own rows.
func TestAliasRepeatedConcatInput(t *testing.T) {
	withAliasing(t, true, func() {
		b := ir.NewBuilder("catxx", 1)
		in := b.Input(2, 4, 4)
		x := b.Conv(in, 2, 3, 1, 1)
		cat := b.Concat(x, x)
		b.Output(cat)
		p := BuildAliasPlan(b.G, 1)
		skip := p.ConcatSkip[cat]
		if len(skip) != 2 || !skip[0] || skip[1] {
			t.Fatalf("ConcatSkip = %v, want [true false]", skip)
		}
	})
}

// TestAliasSecondConcatCopiesSharedInput: when two concats consume the
// same tensor it can live inside only one of them; the second concat must
// fall back to copying it.
func TestAliasSecondConcatCopiesSharedInput(t *testing.T) {
	withAliasing(t, true, func() {
		b := ir.NewBuilder("cat2", 1)
		in := b.Input(2, 4, 4)
		x := b.Conv(in, 2, 3, 1, 1)
		y := b.Conv(in, 2, 3, 1, 1)
		z := b.Conv(in, 2, 3, 1, 1)
		cat1 := b.Concat(x, y)
		cat2 := b.Concat(x, z)
		b.Output(b.Add(b.Conv(cat1, 2, 3, 1, 1), b.Conv(cat2, 2, 3, 1, 1)))
		p := BuildAliasPlan(b.G, 1)
		s1, s2 := p.ConcatSkip[cat1], p.ConcatSkip[cat2]
		if len(s1) != 2 || !s1[0] || !s1[1] {
			t.Fatalf("first concat skip = %v, want both", s1)
		}
		if len(s2) != 2 || s2[0] || !s2[1] {
			t.Fatalf("second concat skip = %v, want [false true] (x already placed)", s2)
		}
	})
}

// TestAliasKillSwitch: SetAliasing(false) must produce nil plans and the
// classic layout; AssignOffsetsNoAlias must match it exactly.
func TestAliasKillSwitch(t *testing.T) {
	b := ir.NewBuilder("kill", 1)
	in := b.Input(2, 4, 4)
	x := b.Conv(in, 2, 3, 1, 1)
	y := b.Conv(in, 3, 3, 1, 1)
	b.Output(b.ReLU(b.Concat(x, y)))
	withAliasing(t, false, func() {
		if p := BuildAliasPlan(b.G, 1); p != nil {
			t.Fatalf("aliasing off but BuildAliasPlan returned %+v", p)
		}
		off := AssignOffsets(b.G, 1)
		base := AssignOffsetsNoAlias(b.G, 1)
		if off.ArenaBytes != base.ArenaBytes {
			t.Fatalf("aliasing off: arena %d != no-alias arena %d", off.ArenaBytes, base.ArenaBytes)
		}
		for _, n := range b.G.Nodes {
			if off.Offsets[n] != base.Offsets[n] {
				t.Fatalf("aliasing off: %s at %d, no-alias at %d", n, off.Offsets[n], base.Offsets[n])
			}
		}
	})
	withAliasing(t, true, func() {
		a := AssignOffsets(b.G, 1)
		na := AssignOffsetsNoAlias(b.G, 1)
		if a.Alias == nil {
			t.Fatal("aliasing on but Assignment.Alias is nil")
		}
		if a.ArenaBytes > na.ArenaBytes {
			t.Fatalf("aliased arena %d exceeds no-alias arena %d", a.ArenaBytes, na.ArenaBytes)
		}
	})
}

// TestSimulateAliasPeakShrinks: on a concat-and-elementwise graph the
// aliased live-byte peak must come in under the classic simulation.
func TestSimulateAliasPeakShrinks(t *testing.T) {
	withAliasing(t, true, func() {
		b := ir.NewBuilder("peak", 1)
		in := b.Input(2, 8, 8)
		x := b.Conv(in, 4, 3, 1, 1)
		y := b.Conv(in, 4, 3, 1, 1)
		cat := b.Concat(x, y)
		b.Output(b.SiLU(b.ReLU(cat)))
		plan := BuildAliasPlan(b.G, 1)
		aliased := SimulateAlias(b.G, 1, 0, plan)
		classic := Simulate(b.G, 1, 0)
		if aliased.PeakInternal >= classic.PeakInternal {
			t.Fatalf("aliased peak %d not below classic %d", aliased.PeakInternal, classic.PeakInternal)
		}
		// Nil plan: exact fallthrough to Simulate.
		if got := SimulateAlias(b.G, 1, 0, nil).PeakInternal; got != classic.PeakInternal {
			t.Fatalf("SimulateAlias(nil) peak %d != Simulate %d", got, classic.PeakInternal)
		}
	})
}
