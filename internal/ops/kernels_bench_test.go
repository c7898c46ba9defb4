package ops

import (
	"context"
	"fmt"
	"testing"

	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// BenchmarkKernels tracks every matmul-shaped kernel over representative
// model shapes so kernel regressions show up directly, independent of the
// figure-level end-to-end benchmarks. The conv shape is the ResNet-scale
// block from the acceptance criteria (N=4, 64→64 channels, 56×56, 3×3);
// results/kernels.txt records the baseline-vs-gemm comparison.
func BenchmarkKernels(b *testing.B) {
	r := tensor.NewRNG(11)
	ctx := context.Background()

	convAttrs := &ir.ConvAttrs{InC: 64, OutC: 64, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}
	convIn := tensor.New(4, 64, 56, 56)
	convIn.FillNormal(r, 0, 1)
	convW := tensor.New(64, 64, 3, 3)
	convW.FillNormal(r, 0, 0.1)
	convB := tensor.New(64)
	convOut := tensor.New(4, 64, 56, 56)

	b.Run("conv3x3/direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Conv2D(convOut, convIn, convW, convB, convAttrs)
		}
	})
	b.Run("conv3x3/im2col", func(b *testing.B) {
		p := planConvAs(convIm2col, convAttrs, convW, 56, 56, 56, 56)
		_ = ConvPlannedCtx(ctx, convOut, convIn, convW, convB, convAttrs, p) // warm the workspace pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ConvPlannedCtx(ctx, convOut, convIn, convW, convB, convAttrs, p)
		}
	})

	oneAttrs := &ir.ConvAttrs{InC: 256, OutC: 64, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
	oneIn := tensor.New(4, 256, 56, 56)
	oneIn.FillNormal(r, 0, 1)
	oneW := tensor.New(64, 256, 1, 1)
	oneW.FillNormal(r, 0, 0.1)
	oneB := tensor.New(64)
	oneOut := tensor.New(4, 64, 56, 56)
	b.Run("conv1x1/planned", func(b *testing.B) {
		p := PlanConv(oneAttrs, oneW, 56, 56, 56, 56)
		_ = ConvPlannedCtx(ctx, oneOut, oneIn, oneW, oneB, oneAttrs, p) // warm the workspace pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ConvPlannedCtx(ctx, oneOut, oneIn, oneW, oneB, oneAttrs, p)
		}
	})

	// Tucker cores on small planes, the shapes the old size thresholds
	// sent to the direct loop: alexnet's conv4 core (26→26, 3×3 plane)
	// and vgg11's conv8 core (51→51, 2×2 plane) at 32×32 input, on the
	// direct loop and on the im2col GEMM PlanConv now picks.
	for _, cs := range []struct {
		name  string
		c, hw int
	}{{"alexnet-26ch-3x3plane", 26, 3}, {"vgg11-51ch-2x2plane", 51, 2}} {
		ca := &ir.ConvAttrs{InC: cs.c, OutC: cs.c, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}
		cw := tensor.New(cs.c, cs.c, 3, 3)
		cw.FillNormal(r, 0, 0.1)
		cb := tensor.New(cs.c)
		for _, n := range []int{1, 4} {
			cin := tensor.New(n, cs.c, cs.hw, cs.hw)
			cin.FillNormal(r, 0, 1)
			cout := tensor.New(n, cs.c, cs.hw, cs.hw)
			for _, k := range []convKernel{convDirect, convIm2col} {
				name := map[convKernel]string{convDirect: "direct", convIm2col: "im2col"}[k]
				b.Run(fmt.Sprintf("core/%s/n=%d/%s", cs.name, n, name), func(b *testing.B) {
					p := planConvAs(k, ca, cw, cs.hw, cs.hw, cs.hw, cs.hw)
					_ = ConvPlannedCtx(ctx, cout, cin, cw, cb, ca, p) // warm the workspace pool
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_ = ConvPlannedCtx(ctx, cout, cin, cw, cb, ca, p)
					}
				})
			}
		}
	}

	linAttrs := &ir.LinearAttrs{In: 512, Out: 512}
	linIn := tensor.New(32, 512)
	linIn.FillNormal(r, 0, 1)
	linW := tensor.New(512, 512)
	linW.FillNormal(r, 0, 0.1)
	linB := tensor.New(512)
	linOut := tensor.New(32, 512)
	b.Run("linear/32x512x512", func(b *testing.B) {
		pw := gemm.PackBT(linAttrs.In, linAttrs.Out, linW.Data, linAttrs.In)
		_ = LinearPrePackedCtx(ctx, linOut, linIn, pw, linB, linAttrs) // warm the workspace pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = LinearPrePackedCtx(ctx, linOut, linIn, pw, linB, linAttrs)
		}
	})

	fAttrs := &ir.FusedAttrs{
		InC: 6, MidC: 64, OutC: 6, Act: ir.KindReLU,
		Pool: &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}, PoolKind: ir.KindMaxPool,
		LW: tensor.New(64, 6, 1, 1), LB: tensor.New(64),
		FW: tensor.New(6, 64, 1, 1), FB: tensor.New(6),
	}
	fAttrs.LW.FillNormal(r, 0, 1)
	fAttrs.FW.FillNormal(r, 0, 1)
	fIn := tensor.New(4, 6, 64, 64)
	fIn.FillNormal(r, 0, 1)
	fOut := tensor.New(4, 6, 32, 32)
	b.Run("fused/lconv-relu-pool-fconv", func(b *testing.B) {
		p := PlanFused(fAttrs)
		_ = FusedPlannedCtx(ctx, fOut, fIn, fAttrs, p) // warm the workspace pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = FusedPlannedCtx(ctx, fOut, fIn, fAttrs, p)
		}
	})
}
