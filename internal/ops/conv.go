package ops

import (
	"context"
	"fmt"

	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// Conv2D computes a direct 2-D convolution. in is [N,C,H,W], w is
// [OutC, InC/G, KH, KW], b is [OutC] (nil allowed), out is [N,OutC,OH,OW].
// Work is parallelized over (batch × output channel) pairs.
func Conv2D(out, in *tensor.Tensor, w, b *tensor.Tensor, a *ir.ConvAttrs) {
	conv2DCtx(context.Background(), out, in, w, b, a)
}

// conv2DCtx is Conv2D with a periodic cancellation check between
// (batch × channel) output planes. On cancellation the output is partially
// written and must be discarded by the caller.
func conv2DCtx(ctx context.Context, out, in *tensor.Tensor, w, b *tensor.Tensor, a *ir.ConvAttrs) error {
	n := in.Dim(0)
	inC, inH, inW := in.Dim(1), in.Dim(2), in.Dim(3)
	outC, outH, outW := out.Dim(1), out.Dim(2), out.Dim(3)
	g := a.Groups
	if g == 0 {
		g = 1
	}
	if inC != a.InC || outC != a.OutC {
		panic(fmt.Sprintf("ops: Conv2D channel mismatch: in %d/%d out %d/%d", inC, a.InC, outC, a.OutC))
	}
	// The run structs are declared once per branch, not hoisted: a variable
	// whose method value feeds parallelForCtx escapes to the heap on every
	// path, and the serial fast paths must stay allocation-free.
	if n >= batchGroup {
		// Batched inference: process sample groups together so each weight
		// tap is loaded once per group and the per-element accumulation runs
		// batchGroup independent chains instead of one latency-bound chain.
		// Each sample's own add order is unchanged, so outputs stay
		// bit-identical to the per-sample path (and to batch 1).
		groups := (n + batchGroup - 1) / batchGroup
		if ctx.Done() == nil && Workers <= 1 {
			// Serial fast path: the run state stays on the stack (see
			// fusedRun), so steady-state inference allocates nothing.
			br := directConvBatchRun{directConvRun: directConvRun{out: out, in: in, w: w, b: b,
				inC: inC, inH: inH, inW: inW, outC: outC, outH: outH, outW: outW,
				icg: a.InC / g, ocg: a.OutC / g,
				kh: a.KH, kw: a.KW, sh: a.SH, sw: a.SW, ph: a.PH, pw: a.PW}, n: n}
			br.run(0, groups*outC)
			return nil
		}
		br := directConvBatchRun{directConvRun: directConvRun{out: out, in: in, w: w, b: b,
			inC: inC, inH: inH, inW: inW, outC: outC, outH: outH, outW: outW,
			icg: a.InC / g, ocg: a.OutC / g,
			kh: a.KH, kw: a.KW, sh: a.SH, sw: a.SW, ph: a.PH, pw: a.PW}, n: n}
		return parallelForCtx(ctx, groups*outC, br.run)
	}
	if ctx.Done() == nil && Workers <= 1 {
		cr := directConvRun{out: out, in: in, w: w, b: b,
			inC: inC, inH: inH, inW: inW, outC: outC, outH: outH, outW: outW,
			icg: a.InC / g, ocg: a.OutC / g,
			kh: a.KH, kw: a.KW, sh: a.SH, sw: a.SW, ph: a.PH, pw: a.PW}
		cr.run(0, n*outC)
		return nil
	}
	cr := directConvRun{out: out, in: in, w: w, b: b,
		inC: inC, inH: inH, inW: inW, outC: outC, outH: outH, outW: outW,
		icg: a.InC / g, ocg: a.OutC / g,
		kh: a.KH, kw: a.KW, sh: a.SH, sw: a.SW, ph: a.PH, pw: a.PW}
	return parallelForCtx(ctx, n*outC, cr.run)
}

// directConvRun carries the per-invocation state of the direct conv kernel
// so the worker body is a method, not an escaping closure (see fusedRun).
type directConvRun struct {
	out, in, w, b          *tensor.Tensor
	inC, inH, inW          int
	outC, outH, outW       int
	icg, ocg               int
	kh, kw, sh, sw, ph, pw int
}

// run computes output planes [lo,hi) over the flattened (batch × channel)
// index. Safe to call concurrently on disjoint ranges.
func (cr *directConvRun) run(lo, hi int) {
	out, in, w, b := cr.out, cr.in, cr.w, cr.b
	inC, inH, inW := cr.inC, cr.inH, cr.inW
	outC, outH, outW := cr.outC, cr.outH, cr.outW
	icg, ocg := cr.icg, cr.ocg
	kh, kw, sh, sw, ph, pw := cr.kh, cr.kw, cr.sh, cr.sw, cr.ph, cr.pw
	for idx := lo; idx < hi; idx++ {
		bIdx := idx / outC
		oc := idx % outC
		grp := oc / ocg
		bias := float32(0)
		if b != nil {
			bias = b.Data[oc]
		}
		wOff := oc * icg * kh * kw
		outOff := (bIdx*outC + oc) * outH * outW
		for oh := 0; oh < outH; oh++ {
			ihBase := oh*sh - ph
			for ow := 0; ow < outW; ow++ {
				iwBase := ow*sw - pw
				acc := bias
				for ic := 0; ic < icg; ic++ {
					gic := grp*icg + ic
					inPlane := (bIdx*inC + gic) * inH * inW
					wPlane := wOff + ic*kh*kw
					for r := 0; r < kh; r++ {
						ih := ihBase + r
						if ih < 0 || ih >= inH {
							continue
						}
						rowIn := inPlane + ih*inW
						rowW := wPlane + r*kw
						for c := 0; c < kw; c++ {
							iw := iwBase + c
							if iw < 0 || iw >= inW {
								continue
							}
							acc += in.Data[rowIn+iw] * w.Data[rowW+c]
						}
					}
				}
				out.Data[outOff+oh*outW+ow] = acc
			}
		}
	}
}

// batchGroup is how many batch samples the direct conv kernel advances in
// lock-step. Four independent accumulators are enough to hide the FMA
// latency chain on current cores without spilling locals to the stack.
const batchGroup = 4

// directConvBatchRun is directConvRun over (sample group × channel) tasks:
// group g covers samples [g·batchGroup, min(g·batchGroup+batchGroup, n)).
// Full groups take the unrolled body; a ragged tail falls back to the
// scalar runner one sample at a time, preserving its exact order.
type directConvBatchRun struct {
	directConvRun
	n int
}

// run computes output planes for group-tasks [lo,hi) over the flattened
// (sample group × channel) index. Safe to call concurrently on disjoint
// ranges.
func (br *directConvBatchRun) run(lo, hi int) {
	out, in, w, b := br.out, br.in, br.w, br.b
	inC, inH, inW := br.inC, br.inH, br.inW
	outC, outH, outW := br.outC, br.outH, br.outW
	icg, ocg := br.icg, br.ocg
	kh, kw, sh, sw, ph, pw := br.kh, br.kw, br.sh, br.sw, br.ph, br.pw
	for idx := lo; idx < hi; idx++ {
		b0 := (idx / outC) * batchGroup
		oc := idx % outC
		if br.n-b0 < batchGroup {
			// Ragged tail group: per-sample scalar path, identical order.
			for bi := b0; bi < br.n; bi++ {
				br.directConvRun.run(bi*outC+oc, bi*outC+oc+1)
			}
			continue
		}
		grp := oc / ocg
		bias := float32(0)
		if b != nil {
			bias = b.Data[oc]
		}
		wOff := oc * icg * kh * kw
		o0 := ((b0+0)*outC + oc) * outH * outW
		o1 := ((b0+1)*outC + oc) * outH * outW
		o2 := ((b0+2)*outC + oc) * outH * outW
		o3 := ((b0+3)*outC + oc) * outH * outW
		// Interior output columns see the full kernel width in bounds; at
		// column stride 1 they form one contiguous run [owLo, owHi) per
		// output row that the vector row-accumulation kernel can process
		// eight outputs at a time.
		owLo, owHi := 0, 0
		if sw == 1 {
			owLo = pw
			owHi = inW - kw + pw + 1
			if owHi > outW {
				owHi = outW
			}
			if owHi <= owLo {
				owLo, owHi = 0, 0
			}
		}
		// Long-row span: with unit strides and outW == inW the plane
		// linearizes — output index q = oh·outW+ow reads x at
		// q + (r-ph)·inW + (c-pw), independent of oh — so ALL vertically
		// interior rows form one dst run for the vector kernel. This is
		// what lets small planes (8×8 and below) reach vector width. The
		// horizontal edge columns inside the run receive wrapped-row
		// garbage; the scalar edge loop below recomputes them from the
		// bias, overwriting, so final bits are unaffected.
		ohLo, ohHi := 0, 0
		if owHi > owLo && sh == 1 && outW == inW {
			ohLo = ph
			ohHi = inH - kh + ph + 1
			if ohHi > outH {
				ohHi = outH
			}
			if ohHi <= ohLo || (ohHi-ohLo-1)*outW+owHi-owLo < 4 {
				ohLo, ohHi = 0, 0
			}
		}
		// The vector kernel has 8- and 4-wide blocks; runs narrower than 4
		// stay on the four-accumulator path, whose shared weight loads beat
		// the kernel's scalar tail.
		rowVec := owHi-owLo >= 4
		if ohHi > ohLo {
			spanLen := (ohHi-ohLo-1)*outW + owHi - owLo
			s0 := o0 + ohLo*outW + owLo
			s1 := o1 + ohLo*outW + owLo
			s2 := o2 + ohLo*outW + owLo
			s3 := o3 + ohLo*outW + owLo
			d0 := out.Data[s0 : s0+spanLen]
			d1 := out.Data[s1 : s1+spanLen]
			d2 := out.Data[s2 : s2+spanLen]
			d3 := out.Data[s3 : s3+spanLen]
			for j := range d0 {
				d0[j] = bias
				d1[j] = bias
				d2[j] = bias
				d3[j] = bias
			}
			xBase := (ohLo-ph)*inW + owLo - pw
			for ic := 0; ic < icg; ic++ {
				gic := grp*icg + ic
				wRows := w.Data[wOff+ic*kh*kw : wOff+(ic+1)*kh*kw]
				p0 := ((b0+0)*inC + gic) * inH * inW
				p1 := ((b0+1)*inC + gic) * inH * inW
				p2 := ((b0+2)*inC + gic) * inH * inW
				p3 := ((b0+3)*inC + gic) * inH * inW
				gemm.ConvRowAccumQuad(d0, d1, d2, d3,
					in.Data[p0+xBase:], in.Data[p1+xBase:],
					in.Data[p2+xBase:], in.Data[p3+xBase:],
					wRows, kh, kw, inW)
			}
		}
		for oh := 0; oh < outH; oh++ {
			ihBase := oh*sh - ph
			// Clip the kernel to the input once per output row/column
			// instead of branching on every tap: the surviving tap sequence
			// is exactly the one the scalar path visits, so accumulation
			// order (and thus bits) is unchanged.
			rLo, rHi := 0, kh
			if ihBase < 0 {
				rLo = -ihBase
			}
			if ihBase+kh > inH {
				rHi = inH - ihBase
			}
			iLo, iHi := outW, outW
			if oh >= ohLo && oh < ohHi {
				// Interior columns of this row were computed by the long
				// span above; only the edges remain.
				iLo, iHi = owLo, owHi
			} else if rowVec && rHi > rLo {
				// Vectorized interior: seed the bias, then accumulate each
				// input channel's surviving rows. Per output element the
				// order is still bias → ic → r → c with one rounding per
				// multiply and per add, so bits match the scalar path.
				iLo, iHi = owLo, owHi
				rowOff := oh * outW
				d0 := out.Data[o0+rowOff+owLo : o0+rowOff+owHi]
				d1 := out.Data[o1+rowOff+owLo : o1+rowOff+owHi]
				d2 := out.Data[o2+rowOff+owLo : o2+rowOff+owHi]
				d3 := out.Data[o3+rowOff+owLo : o3+rowOff+owHi]
				for j := range d0 {
					d0[j] = bias
					d1[j] = bias
					d2[j] = bias
					d3[j] = bias
				}
				rows := rHi - rLo
				xBase := (ihBase+rLo)*inW + owLo - pw
				for ic := 0; ic < icg; ic++ {
					gic := grp*icg + ic
					wRows := w.Data[wOff+ic*kh*kw+rLo*kw : wOff+ic*kh*kw+rHi*kw]
					p0 := ((b0+0)*inC + gic) * inH * inW
					p1 := ((b0+1)*inC + gic) * inH * inW
					p2 := ((b0+2)*inC + gic) * inH * inW
					p3 := ((b0+3)*inC + gic) * inH * inW
					gemm.ConvRowAccumQuad(d0, d1, d2, d3,
						in.Data[p0+xBase:], in.Data[p1+xBase:],
						in.Data[p2+xBase:], in.Data[p3+xBase:],
						wRows, rows, kw, inW)
				}
			}
			for ow := 0; ow < outW; ow++ {
				if ow >= iLo && ow < iHi {
					ow = iHi - 1 // loop increment lands on iHi
					continue
				}
				iwBase := ow*sw - pw
				cLo, cHi := 0, kw
				if iwBase < 0 {
					cLo = -iwBase
				}
				if iwBase+kw > inW {
					cHi = inW - iwBase
				}
				cnt := cHi - cLo
				acc0, acc1, acc2, acc3 := bias, bias, bias, bias
				if cnt > 0 {
					for ic := 0; ic < icg; ic++ {
						gic := grp*icg + ic
						p0 := ((b0+0)*inC+gic)*inH*inW + iwBase + cLo
						p1 := ((b0+1)*inC+gic)*inH*inW + iwBase + cLo
						p2 := ((b0+2)*inC+gic)*inH*inW + iwBase + cLo
						p3 := ((b0+3)*inC+gic)*inH*inW + iwBase + cLo
						wPlane := wOff + ic*kh*kw + cLo
						for r := rLo; r < rHi; r++ {
							row := (ihBase + r) * inW
							wr := w.Data[wPlane+r*kw:][:cnt]
							x0 := in.Data[p0+row:][:cnt]
							x1 := in.Data[p1+row:][:cnt]
							x2 := in.Data[p2+row:][:cnt]
							x3 := in.Data[p3+row:][:cnt]
							for c, v := range wr {
								acc0 += x0[c] * v
								acc1 += x1[c] * v
								acc2 += x2[c] * v
								acc3 += x3[c] * v
							}
						}
					}
				}
				po := oh*outW + ow
				out.Data[o0+po] = acc0
				out.Data[o1+po] = acc1
				out.Data[o2+po] = acc2
				out.Data[o3+po] = acc3
			}
		}
	}
}

// LinearPrePackedCtx computes out = in·Wᵀ + b with in [N,In], b [Out]
// (nil allowed), out [N,Out], and the [Out, In] weight W supplied
// pre-packed by gemm.PackBT: one GEMM, bit-identical to gemm.GemmBT on the
// unpacked weight. A context that is already done returns its error before
// any work — in particular before the bias rows are seeded. Linear is a
// single GEMM, so there is no mid-kernel check to make.
func LinearPrePackedCtx(ctx context.Context, out, in *tensor.Tensor, pw *gemm.PackedB, b *tensor.Tensor, a *ir.LinearAttrs) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := in.Dim(0)
	beta := linearBias(out, b, n, a.Out)
	gemm.GemmPrePackedBT(n, 1, in.Data, a.In, pw, beta, out.Data, a.Out)
	return nil
}

// linearBias seeds every output row with the bias vector and returns the
// GEMM beta: 1 when seeded, 0 (never read C) without a bias.
func linearBias(out *tensor.Tensor, b *tensor.Tensor, n, width int) float32 {
	if b == nil {
		return 0
	}
	for bi := 0; bi < n; bi++ {
		copy(out.Data[bi*width:(bi+1)*width], b.Data)
	}
	return 1
}
