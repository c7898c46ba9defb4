package core

import (
	"fmt"

	"temco/internal/ir"
	"temco/internal/tensor"
)

// FoldBatchNorm folds inference batch normalization into the preceding
// convolution: conv(W,B) → bn(scale,shift) becomes conv(scale·W,
// scale·B+shift). This standard inference optimization leaves the graphs
// in conv→activation form, which is what both the decomposition rewrite
// and the fusion pattern matcher expect. Folding only applies when the
// convolution's sole consumer is the batchnorm and its weight is dense (a
// block-diagonal conv is left alone); weights are copied, never mutated in
// place (they may be shared with other graph clones).
func FoldBatchNorm(g *ir.Graph) Stats {
	var st Stats
	uses := g.UseCounts()
	snapshot := append([]*ir.Node(nil), g.Nodes...)
	for _, bn := range snapshot {
		if bn.Kind != ir.KindBatchNorm {
			continue
		}
		c := bn.Inputs[0]
		if c.Kind != ir.KindConv2D || uses[c] != 1 {
			continue
		}
		a := c.Conv()
		if a.Blocks != nil {
			continue
		}
		g2 := a.Groups
		if g2 == 0 {
			g2 = 1
		}
		perOut := (a.InC / g2) * a.KH * a.KW
		w := tensor.New(c.W.Shape...)
		b := tensor.New(a.OutC)
		for o := 0; o < a.OutC; o++ {
			s := bn.W.Data[o]
			copy(w.Data[o*perOut:(o+1)*perOut], c.W.Data[o*perOut:(o+1)*perOut])
			for k := o * perOut; k < (o+1)*perOut; k++ {
				w.Data[k] *= s
			}
			if c.B != nil {
				b.Data[o] = s * c.B.Data[o]
			}
			b.Data[o] += bn.B.Data[o]
		}
		c.W, c.B = w, b
		g.ReplaceAllUses(bn, c)
		st.BatchNormsFolded++
		uses = g.UseCounts()
	}
	st.DeadNodesRemoved += g.DeadCodeElim()
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("core: FoldBatchNorm produced invalid graph: %v", err))
	}
	return st
}
