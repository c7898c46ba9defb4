package core

import (
	"fmt"

	"temco/internal/ir"
)

// FuseActivations implements paper §3.2: every
//
//	lconv → activation [→ pool] → fconv
//
// chain whose intermediate values have no other consumers is replaced by a
// single KindFused node that computes the chain from the reduced input
// tensor to the reduced output tensor without materializing the restored
// intermediates. The graph is modified in place.
func FuseActivations(g *ir.Graph, cfg Config) Stats {
	var st Stats
	uses := g.UseCounts()
	snapshot := append([]*ir.Node(nil), g.Nodes...)
	fused := make(map[*ir.Node]bool)
	for _, c := range snapshot {
		// The trailing convolution is usually a channel-reducing fconv, but
		// any 1×1 stride-1 convolution closes the pattern: the memory win
		// comes from never materializing the lconv's restored output.
		if fused[c] || !conv1x1(c) {
			continue
		}
		x := c.Inputs[0]
		var pool *ir.Node
		if (x.Kind == ir.KindMaxPool || x.Kind == ir.KindAvgPool) && uses[x] == 1 && !fused[x] {
			pool = x
			x = x.Inputs[0]
		}
		if !x.Kind.IsActivation() || uses[x] != 1 || fused[x] {
			continue
		}
		a := x.Inputs[0]
		if !a.IsLConv() || uses[a] != 1 || fused[a] {
			continue
		}
		// Build the fused node in place of the fconv.
		la, fa := a.Conv(), c.Conv()
		attrs := &ir.FusedAttrs{
			InC: la.InC, MidC: la.OutC, OutC: fa.OutC,
			Act: x.Kind,
			LW:  a.W, LB: a.B, FW: c.W, FB: c.B,
			LBlocks: la.Blocks,
		}
		if pool != nil {
			p := *pool.Pool()
			attrs.Pool = &p
			attrs.PoolKind = pool.Kind
		}
		in := a.Inputs[0]
		shape, err := ir.InferShape(ir.KindFused, attrs, [][]int{in.Shape})
		if err != nil {
			panic(fmt.Sprintf("core: fusion shape error at %s: %v", c, err))
		}
		fn := &ir.Node{
			ID:     g.NewID(),
			Name:   fuseName(a, x, pool, c),
			Kind:   ir.KindFused,
			Inputs: []*ir.Node{in},
			Attrs:  attrs,
			Shape:  shape,
		}
		replaceInSchedule(g, c, fn)
		g.ReplaceAllUses(c, fn)
		fused[a], fused[x], fused[c] = true, true, true
		if pool != nil {
			fused[pool] = true
		}
		st.FusedKernels++
	}
	// Second scan: tail fusion. Any remaining lconv→act[→pool] chain whose
	// result feeds a non-1×1 consumer (an add, a concat, the graph output)
	// is collapsed into a kernel that emits the restored tensor directly —
	// removing the lconv-output/activation-input double buffering ("the
	// restorations of skip connections can also be hidden in the fused
	// layers", paper §2.3).
	uses = g.UseCounts()
	snapshot = append([]*ir.Node(nil), g.Nodes...)
	for _, x := range snapshot {
		if fused[x] || !x.Kind.IsActivation() {
			continue
		}
		a := x.Inputs[0]
		if !a.IsLConv() || uses[a] != 1 || fused[a] {
			continue
		}
		final := x
		var pool *ir.Node
		// Take an optional trailing single-use pool into the kernel.
		if uses[x] == 1 {
			for _, s := range g.Succs()[x] {
				if (s.Kind == ir.KindMaxPool || s.Kind == ir.KindAvgPool) && !fused[s] {
					pool = s
					final = s
				}
			}
		}
		la := a.Conv()
		attrs := &ir.FusedAttrs{
			InC: la.InC, MidC: la.OutC, OutC: la.OutC,
			Act: x.Kind,
			LW:  a.W, LB: a.B,
			LBlocks: la.Blocks,
		}
		if pool != nil {
			p := *pool.Pool()
			attrs.Pool = &p
			attrs.PoolKind = pool.Kind
		}
		in := a.Inputs[0]
		shape, err := ir.InferShape(ir.KindFused, attrs, [][]int{in.Shape})
		if err != nil {
			panic(fmt.Sprintf("core: tail fusion shape error at %s: %v", x, err))
		}
		fn := &ir.Node{
			ID:     g.NewID(),
			Name:   fuseName(a, x, pool, nil),
			Kind:   ir.KindFused,
			Inputs: []*ir.Node{in},
			Attrs:  attrs,
			Shape:  shape,
		}
		replaceInSchedule(g, final, fn)
		g.ReplaceAllUses(final, fn)
		fused[a], fused[x] = true, true
		if pool != nil {
			fused[pool] = true
		}
		st.TailFusedKernels++
	}
	st.DeadNodesRemoved += g.DeadCodeElim()
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("core: FuseActivations produced invalid graph: %v", err))
	}
	return st
}

func fuseName(a, x, pool, c *ir.Node) string {
	tail := "tail"
	if c != nil {
		tail = c.Name
	}
	if pool != nil {
		return fmt.Sprintf("%s_%s_%s_%s", a.Name, x.Kind, pool.Kind, tail)
	}
	return fmt.Sprintf("%s_%s_%s", a.Name, x.Kind, tail)
}

// replaceInSchedule swaps old for new at old's schedule slot.
func replaceInSchedule(g *ir.Graph, old, new *ir.Node) {
	for i, n := range g.Nodes {
		if n == old {
			g.Nodes[i] = new
			return
		}
	}
	panic(fmt.Sprintf("core: node %s not in schedule", old))
}
