package exec

import (
	"testing"

	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/tensor"
)

func withAliasing(t *testing.T, on bool, f func()) {
	t.Helper()
	prev := memplan.SetAliasing(on)
	defer memplan.SetAliasing(prev)
	f()
}

// TestArenaInputMutationFallsBackToCopy: here the plan runs the relu in
// place on the input's storage, so the arena executor must work on its
// copy of the input and hand the caller's buffer back untouched.
func TestArenaInputMutationFallsBackToCopy(t *testing.T) {
	withAliasing(t, true, func() {
		b := ir.NewBuilder("mutate", 22)
		in := b.Input(3, 8, 8)
		b.Output(b.ReLU(in))
		g := b.G
		asg := memplan.AssignOffsets(g, 1)
		if err := asg.Check(); err != nil {
			t.Fatal(err)
		}
		p := asg.Alias
		if r, _ := p.Root(g.Nodes[1]); r != in {
			t.Fatalf("precondition: relu should run in place on the input, roots at %s", r)
		}
		x := randIn(9, 1, 3, 8, 8)
		orig := x.Clone()
		got, err := RunArena(g, asg, x)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(x, orig); d != 0 {
			t.Fatalf("caller's input buffer mutated by %v", d)
		}
		want, err := Run(g, x)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(got.Outputs[0], want.Outputs[0]); d != 0 {
			t.Fatalf("in-place-on-copied-input run deviates by %v", d)
		}
	})
}

// aliasStressGraph exercises every aliasing mechanism at once: concat
// views, an in-place chain on the concat region, a flatten view, and a
// second use of a concat input that forces the copy fallback.
func aliasStressGraph() *ir.Graph {
	b := ir.NewBuilder("aliasmix", 23)
	in := b.Input(3, 8, 8)
	x := b.Conv(in, 4, 3, 1, 1)
	y := b.Conv(in, 4, 3, 1, 1)
	cat := b.Concat(x, y) // x aliases; y is read again below, still aliases (reads stay valid)
	r := b.ReLU(cat)
	a := b.Add(r, b.Concat(y, y)) // second concat must copy y's rows
	f := b.Flatten(a)
	b.Output(b.Linear(f, 5))
	return b.G
}

// TestArenaAliasBitIdentical: with aliasing on, the arena executor must
// reproduce the pooled interpreter bit-for-bit — and match its own
// aliasing-off output — at batch 1 (concat views active) and batch 3
// (concat copy fallback).
func TestArenaAliasBitIdentical(t *testing.T) {
	g := aliasStressGraph()
	for _, batch := range []int{1, 3} {
		x := randIn(31, batch, 3, 8, 8)
		want, err := Run(g, x)
		if err != nil {
			t.Fatal(err)
		}
		var on, off *Result
		withAliasing(t, true, func() {
			asg := memplan.AssignOffsets(g, batch)
			if err := asg.Check(); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			if on, err = RunArena(g, asg, x); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		})
		withAliasing(t, false, func() {
			asg := memplan.AssignOffsets(g, batch)
			if err := asg.Check(); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			if off, err = RunArena(g, asg, x); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		})
		for i := range want.Outputs {
			if d := tensor.MaxAbsDiff(on.Outputs[i], want.Outputs[i]); d != 0 {
				t.Fatalf("batch %d: aliased arena deviates from interpreter by %v", batch, d)
			}
			if d := tensor.MaxAbsDiff(on.Outputs[i], off.Outputs[i]); d != 0 {
				t.Fatalf("batch %d: aliasing on vs off differ by %v", batch, d)
			}
		}
	}
}
