package core_test

import (
	"strings"
	"testing"

	"temco/internal/core"
	"temco/internal/decompose"
	"temco/internal/ir"
	"temco/internal/models"
	"temco/internal/tensor"
)

// TestDenseNetMergedLConvsAreBlockDiagonal pins the merged lconv's block
// structure on the paper's own skip architecture: densenet40 at 32×32 (the
// engine-skip-b1 benchmark's graph) costs at most 1.06× its decomposed
// FLOPs, and every merged lconv carries a block list, unfused and fused.
func TestDenseNetMergedLConvsAreBlockDiagonal(t *testing.T) {
	base, err := models.Build("densenet40", models.Config{H: 32, W: 32, Classes: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	core.FoldBatchNorm(base)
	dec, _ := decompose.Decompose(base, decompose.DefaultOptions())
	opt, st := core.Optimize(dec, core.DefaultConfig())
	if st.MergedLConvs == 0 {
		t.Fatal("no merged lconvs")
	}
	if r := float64(ir.GraphFLOPs(opt)) / float64(ir.GraphFLOPs(dec)); r > 1.06 {
		t.Errorf("optimized/decomposed FLOPs = %.3f, want <= 1.06", r)
	}
	fused := 0
	for _, n := range opt.Nodes {
		if n.Kind == ir.KindFused && n.Fused().LBlocks != nil {
			fused++
		}
	}
	if fused == 0 {
		t.Error("no fused node carries an lconv block list")
	}
	cfg := core.DefaultConfig()
	cfg.Fusion = false
	tg, _ := core.Optimize(dec, cfg)
	merged := 0
	for _, n := range tg.Nodes {
		if strings.HasSuffix(n.Name, ".mlconv") {
			merged++
			if n.Conv().Blocks == nil {
				t.Errorf("%s has no block list", n)
			}
		}
	}
	if merged == 0 {
		t.Fatal("transform-only graph has no merged lconv")
	}
}

// TestBNFoldSkipsBlockConv: folding reads a conv weight densely, so a
// block-diagonal conv keeps its batchnorm.
func TestBNFoldSkipsBlockConv(t *testing.T) {
	b := ir.NewBuilder("bnblk", 1)
	in := b.Input(4, 4, 4)
	c := b.G.Apply(ir.KindConv2D, "c", &ir.ConvAttrs{InC: 4, OutC: 6, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1,
		Blocks: []ir.ConvBlock{{InC: 1, OutC: 2}, {InC: 3, OutC: 4}}}, in)
	c.W = tensor.New(14)
	b.Output(b.BatchNorm(c))
	if st := core.FoldBatchNorm(b.G); st.BatchNormsFolded != 0 {
		t.Fatalf("folded %d batchnorms into a block conv", st.BatchNormsFolded)
	}
}
