package ops

import (
	"context"

	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// Kernel plans. The kernel choice, the packed weight panels, and the
// im2col gather geometry of a conv or fused node are a function of the
// node alone, so PlanConv/PlanFused compute them once and the *PlannedCtx
// kernels consume the plan on every run. PlanConv is the one conv kernel
// decision: every executor reaches conv through it (via exec.PrepareStep),
// and direct Conv2D stays as the kernel reference the GEMM paths are
// tested against.

// convKernel names the kernel a ConvPlan selected.
type convKernel uint8

const (
	convDirect convKernel = iota
	convPointwise
	convIm2col
)

// ConvPlan is the prepared execution of one Conv2D node at fixed spatial
// dimensions: kernel choice, GEMM geometry, the im2col gather table, and
// the pre-packed weight panels.
type ConvPlan struct {
	kernel convKernel
	// rows/cols are the per-batch-element GEMM dimensions: W[OutC × rows] ·
	// col[rows × cols] for im2col, W[OutC × InC] · in[InC × cols] pointwise.
	rows, cols int
	// idx is the per-channel im2col gather table, [KH·KW·cols] input-plane
	// offsets with -1 marking padding positions.
	idx []int32
	// pw is the weight's diagonal blocks pre-packed as the GEMM's A operand
	// (GEMM paths only; one block unless the conv is block-diagonal).
	pw []gemmBlock
}

// PackedBytes reports the plan's resident footprint (packed panels plus
// gather table), for engine statistics.
func (p *ConvPlan) PackedBytes() int64 {
	return blocksBytes(p.pw) + int64(len(p.idx))*4
}

// gemmBlock is one pre-packed diagonal block of a GEMM-backed kernel's
// weight: rows [outOff, outOff+m) of C are A·B over rows [inOff, inOff+k)
// of B. A dense weight is a single block at offset zero.
type gemmBlock struct {
	inOff, outOff, k, m int
	pa                  *gemm.PackedA
}

// packBlocks packs the diagonal blocks of an inC→outC channel mix whose
// weight w stores them back to back (block i as [OutC_i × InC_i]; nil
// blocks = one dense [outC × inC] block).
func packBlocks(blocks []ir.ConvBlock, w []float32, inC, outC int) []gemmBlock {
	bs := ir.ChannelBlocks(blocks, inC, outC)
	out := make([]gemmBlock, len(bs))
	inOff, outOff, wOff := 0, 0, 0
	for i, b := range bs {
		out[i] = gemmBlock{inOff: inOff, outOff: outOff, k: b.InC, m: b.OutC,
			pa: gemm.PackA(b.OutC, b.InC, w[wOff:wOff+b.OutC*b.InC], b.InC)}
		inOff += b.InC
		outOff += b.OutC
		wOff += b.OutC * b.InC
	}
	return out
}

// mulBlocks computes, for every block, its C rows = A·(its B rows) + bias
// over n columns: b holds the B operand's rows at stride ldb, c the output
// rows at stride ldc, bias the per-output-row bias (nil for none). relu
// applies ReLU as the GEMM stores C. serial keeps each GEMM on the calling
// goroutine.
func mulBlocks(serial bool, blocks []gemmBlock, n int, b []float32, ldb int, bias, c []float32, ldc int, relu bool) {
	for i := range blocks {
		blk := &blocks[i]
		var bb []float32
		if bias != nil {
			bb = bias[blk.outOff : blk.outOff+blk.m]
		}
		bs := b[blk.inOff*ldb : (blk.inOff+blk.k-1)*ldb+n]
		cs := c[blk.outOff*ldc : (blk.outOff+blk.m-1)*ldc+n]
		if serial {
			gemm.SerialPackedABias(n, blk.pa, bs, ldb, bb, cs, ldc, relu)
		} else {
			gemm.GemmPackedABias(n, blk.pa, bs, ldb, bb, cs, ldc, relu)
		}
	}
}

func blocksBytes(blocks []gemmBlock) int64 {
	var n int64
	for _, b := range blocks {
		n += b.pa.Bytes()
	}
	return n
}

// biasData is a bias tensor's values, nil without a bias.
func biasData(b *tensor.Tensor) []float32 {
	if b == nil {
		return nil
	}
	return b.Data
}

// PlanConv prepares a Conv2D with input plane inH×inW and output plane
// outH×outW, choosing the kernel from the conv's shape. Pure 1×1
// channel mixes (unit stride, no padding, no groups) run pointwise, one
// GEMM per batch element with no unfolding, and so does every
// block-diagonal conv, one GEMM per block over its channel sub-ranges:
// its W holds only the blocks, which the direct loop cannot read. Every
// other ungrouped conv takes the im2col lowering, however small its plane
// or channel count. Tucker cores on tiny planes gain most: alexnet's
// 26→26 3×3 core on a 3×3 plane runs 15× faster at N=1 and 5.1× at N=4
// than on the direct loop, 64→64 3×3 on 56×56 at N=4 runs 2.1× faster
// (results/kernels.txt). The direct loop keeps grouped convs, which the
// GEMM paths do not lower, and pure 1×1 convs with outHW·InC < 256. At
// 32×32 model input only decomposed graphs have such 1×1 convs (the
// optimized graphs fuse them), so moving them onto the GEMM would speed
// up the baseline that TeMCO's gains are measured against, not the
// optimized graph; that threshold stays until the baseline is re-measured
// on purpose.
func PlanConv(a *ir.ConvAttrs, w *tensor.Tensor, inH, inW, outH, outW int) *ConvPlan {
	g := a.Groups
	if g == 0 {
		g = 1
	}
	outHW := outH * outW
	k := convDirect
	switch {
	case a.Blocks != nil || is1x1Pointwise(a) && outHW*a.InC >= 256:
		k = convPointwise
	case g == 1 && !is1x1Pointwise(a):
		k = convIm2col
	}
	return planConvAs(k, a, w, inH, inW, outH, outW)
}

// planConvAs builds the plan for kernel k, which must suit the conv:
// pointwise needs a 1×1 pure channel mix, im2col an ungrouped conv.
func planConvAs(k convKernel, a *ir.ConvAttrs, w *tensor.Tensor, inH, inW, outH, outW int) *ConvPlan {
	p := &ConvPlan{kernel: k}
	switch k {
	case convPointwise:
		p.rows, p.cols = a.InC, outH*outW
		p.pw = packBlocks(a.Blocks, w.Data, a.InC, a.OutC)
	case convIm2col:
		p.rows, p.cols = a.InC*a.KH*a.KW, outH*outW
		p.pw = packBlocks(nil, w.Data, p.rows, a.OutC)
		p.idx = im2colIndex(inH, inW, outH, outW, a)
	}
	return p
}

// ConvPlannedCtx executes a planned convolution; out/in must have the
// spatial dimensions the plan was built for (any batch size). Long
// convolutions check ctx periodically (between batch elements or output
// planes) and return ctx.Err() once it is canceled, so a canceled request
// stops mid-node; the output then holds partial garbage and must be
// discarded. A context that cannot be canceled costs nothing.
func ConvPlannedCtx(ctx context.Context, out, in *tensor.Tensor, w, b *tensor.Tensor, a *ir.ConvAttrs, p *ConvPlan) error {
	switch p.kernel {
	case convPointwise:
		return conv1x1PlannedCtx(ctx, out, in, b, p)
	case convIm2col:
		return im2colPlannedCtx(ctx, out, in, b, p)
	default:
		return conv2DCtx(ctx, out, in, w, b, a)
	}
}

// conv1x1PlannedCtx is the pointwise kernel: out[bi] = W[OutC×InC] ·
// in[bi][InC×H·W] + bias, one GEMM per batch element and diagonal block
// with the weight pre-packed. With enough batch elements to keep every
// worker busy it parallelizes over the batch with serial GEMMs; otherwise
// it runs the elements in order and lets each GEMM fan out.
func conv1x1PlannedCtx(ctx context.Context, out, in *tensor.Tensor, b *tensor.Tensor, p *ConvPlan) error {
	n := in.Dim(0)
	inC := in.Dim(1)
	hw := in.Dim(2) * in.Dim(3)
	outC := out.Dim(1)
	bias := biasData(b)
	if n >= Workers && Workers > 1 {
		return parallelForCtx(ctx, n, func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				mulBlocks(true, p.pw, hw, in.Data[bi*inC*hw:(bi+1)*inC*hw], hw, bias, out.Data[bi*outC*hw:(bi+1)*outC*hw], hw, false)
			}
		})
	}
	for bi := 0; bi < n; bi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		mulBlocks(false, p.pw, hw, in.Data[bi*inC*hw:(bi+1)*inC*hw], hw, bias, out.Data[bi*outC*hw:(bi+1)*outC*hw], hw, false)
	}
	return nil
}

// im2colPlannedCtx lowers the convolution to a matrix product: each batch
// element's input windows are unfolded through the plan's gather table
// into a pooled column matrix, and out[bi] = W[OutC × InC·KH·KW] ·
// col[InC·KH·KW × OH·OW] + bias is one GEMM against the pre-packed
// weight. Same batch/GEMM parallel split as conv1x1PlannedCtx.
func im2colPlannedCtx(ctx context.Context, out, in *tensor.Tensor, b *tensor.Tensor, p *ConvPlan) error {
	n := in.Dim(0)
	inC := in.Dim(1)
	inHW := in.Dim(2) * in.Dim(3)
	outC := out.Dim(1)
	rows, cols := p.rows, p.cols
	bias := biasData(b)
	if n >= Workers && Workers > 1 {
		return parallelForCtx(ctx, n, func(lo, hi int) {
			colPtr := gemm.GetF32(rows * cols)
			for bi := lo; bi < hi; bi++ {
				im2colIndexed(*colPtr, in, bi, inC, inHW, p.idx)
				mulBlocks(true, p.pw, cols, *colPtr, cols, bias, out.Data[bi*outC*cols:(bi+1)*outC*cols], cols, false)
			}
			gemm.PutF32(colPtr)
		})
	}
	colPtr := gemm.GetF32(rows * cols)
	for bi := 0; bi < n; bi++ {
		if err := ctx.Err(); err != nil {
			gemm.PutF32(colPtr)
			return err
		}
		im2colIndexed(*colPtr, in, bi, inC, inHW, p.idx)
		mulBlocks(false, p.pw, cols, *colPtr, cols, bias, out.Data[bi*outC*cols:(bi+1)*outC*cols], cols, false)
	}
	gemm.PutF32(colPtr)
	return nil
}

// im2colIndex precomputes the window-unfold gather table: entry
// ((r·KW+q)·cols + oh·outW + ow) holds the input-plane offset feeding
// column (oh,ow) of kernel tap (r,q), or -1 at padding. The table is
// channel-independent; im2colIndexed replays it per input channel.
func im2colIndex(inH, inW, outH, outW int, a *ir.ConvAttrs) []int32 {
	cols := outH * outW
	idx := make([]int32, a.KH*a.KW*cols)
	i := 0
	for r := 0; r < a.KH; r++ {
		for q := 0; q < a.KW; q++ {
			for oh := 0; oh < outH; oh++ {
				ih := oh*a.SH - a.PH + r
				for ow := 0; ow < outW; ow++ {
					iw := ow*a.SW - a.PW + q
					if ih < 0 || ih >= inH || iw < 0 || iw >= inW {
						idx[i] = -1
					} else {
						idx[i] = int32(ih*inW + iw)
					}
					i++
				}
			}
		}
	}
	return idx
}

// im2colIndexed unfolds one batch element through the gather table,
// producing exactly the [InC·KH·KW, outH·outW] column matrix im2col builds.
func im2colIndexed(colBuf []float32, in *tensor.Tensor, bi, inC, inHW int, idx []int32) {
	kl := len(idx)
	for ic := 0; ic < inC; ic++ {
		src := in.Data[(bi*inC+ic)*inHW:][:inHW]
		dst := colBuf[ic*kl : (ic+1)*kl]
		for i, o := range idx {
			if o >= 0 {
				dst[i] = src[o]
			} else {
				dst[i] = 0
			}
		}
	}
}

// is1x1Pointwise reports whether the conv is a pure channel mixing: 1×1
// kernel, unit stride, no padding, no groups.
func is1x1Pointwise(a *ir.ConvAttrs) bool {
	return a.KH == 1 && a.KW == 1 && a.SH == 1 && a.SW == 1 &&
		a.PH == 0 && a.PW == 0 && (a.Groups == 0 || a.Groups == 1)
}

// FusedPlan pre-packs a fused node's lconv and fconv weights as the A
// operands of the per-tile GEMMs: the lconv as one panel per diagonal
// block (one block unless it is a merged lconv), the fconv as one block.
type FusedPlan struct {
	lw, fw []gemmBlock // fw is nil for tail fusion (no fconv)
}

// PackedBytes reports the plan's resident packed-panel footprint.
func (p *FusedPlan) PackedBytes() int64 {
	return blocksBytes(p.lw) + blocksBytes(p.fw)
}

// PlanFused prepares a fused lconv→act→[pool]→fconv node.
func PlanFused(a *ir.FusedAttrs) *FusedPlan {
	p := &FusedPlan{lw: packBlocks(a.LBlocks, a.LW.Data, a.InC, a.MidC)}
	if a.FW != nil {
		p.fw = packBlocks(nil, a.FW.Data, a.MidC, a.OutC)
	}
	return p
}
