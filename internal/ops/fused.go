package ops

import (
	"context"
	"fmt"
	"math"

	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// FusedTile is the spatial tile edge (in output pixels) used by the fused
// kernel. It corresponds to the CUDA block tile T in the paper's Listing 1:
// the restored C'-channel values exist only inside a per-worker buffer of
// this granularity, never as a full feature map.
const FusedTile = 8

// actFromKind maps IR activation kinds onto kernel activation codes.
func actFromKind(k ir.Kind) actKind {
	switch k {
	case ir.KindReLU:
		return actReLU
	case ir.KindSiLU:
		return actSiLU
	case ir.KindSigmoid:
		return actSigmoid
	default:
		return actIdentity
	}
}

// fusedScratchLens reports the per-worker scratch buffer lengths the fused
// kernel borrows from the workspace arena. FusedWorkspaceBytes charges
// exactly these sizes, and TestFusedWorkspaceMatchesScratch pins the two
// together.
//
//	xbuf   f32    packed input region [InC × regP] for the lconv GEMM
//	mid    f32    restored region [MidC × regP]
//	pooled f32    pooled tile [MidC × T²] (pool layers only)
//	ftile  f32    fconv output tile [OutC × T²] (zero for tail fusion)
func fusedScratchLens(a *ir.FusedAttrs) (xbuf, mid, pooled, ftile int) {
	kh, kw, sh, sw := 1, 1, 1, 1
	if a.Pool != nil {
		kh, kw, sh, sw = a.Pool.KH, a.Pool.KW, a.Pool.SH, a.Pool.SW
	}
	regP := ((FusedTile-1)*sh + kh) * ((FusedTile-1)*sw + kw)
	xbuf = a.InC * regP
	mid = a.MidC * regP
	if a.Pool != nil {
		pooled = a.MidC * FusedTile * FusedTile
	}
	if a.FW != nil {
		ftile = a.OutC * FusedTile * FusedTile
	}
	return
}

// FusedPlannedCtx executes a lconv→act→[pool]→fconv sequence without
// materializing the restored intermediate tensors (paper §3.2, Listing 1),
// with the lconv/fconv weights pre-packed by PlanFused. in is [N,InC,H,W]
// (a reduced tensor), out is [N,OutC,OH,OW] (the next reduced tensor). Per
// output tile, the kernel:
//
//  1. gathers the pre-pool input region the tile needs into a packed
//     buffer and expands it to C' channels with one GEMM per diagonal
//     block of the lconv (a 1×1 channel expansion; one block unless it is
//     a merged lconv) on the blocked micro-kernel, bias added and ReLU
//     applied as the GEMM stores each tile,
//  2. applies SiLU or Sigmoid in one pass over the restored region (ReLU
//     and identity cost no pass of their own), then overwrites the
//     region's padding positions with the pool's identity,
//  3. pools the region down to the tile (when a pool layer is fused), and
//  4. reduces back to OutC channels with a second GEMM (fconv).
//
// All scratch comes from the pooled workspace arena: steady-state calls
// allocate nothing. Workers re-check ctx every few tiles and abandon the
// rest of the kernel once it is canceled, returning ctx.Err(); the output
// is then partially written and must be discarded. A context that cannot
// be canceled takes the serial fast path and costs nothing.
func FusedPlannedCtx(ctx context.Context, out, in *tensor.Tensor, a *ir.FusedAttrs, plan *FusedPlan) error {
	n := in.Dim(0)
	inC, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	outC, outH, outW := out.Dim(1), out.Dim(2), out.Dim(3)
	if inC != a.InC || outC != a.OutC {
		panic(fmt.Sprintf("ops: Fused channel mismatch in %d/%d out %d/%d", inC, a.InC, outC, a.OutC))
	}
	// Unify the pooled and unpooled paths: no pool behaves as a 1×1/1 pool.
	kh, kw, sh, sw, ph, pw := 1, 1, 1, 1, 0, 0
	isMax := false
	hasPool := a.Pool != nil
	if hasPool {
		kh, kw, sh, sw, ph, pw = a.Pool.KH, a.Pool.KW, a.Pool.SH, a.Pool.SW, a.Pool.PH, a.Pool.PW
		isMax = a.PoolKind == ir.KindMaxPool
	}
	act := actFromKind(a.Act)
	area := float32(kh * kw)

	tilesH := (outH + FusedTile - 1) / FusedTile
	tilesW := (outW + FusedTile - 1) / FusedTile
	xbufLen, midLen, pooledLen, ftileLen := fusedScratchLens(a)

	tasks := n * tilesH * tilesW
	if ctx.Done() == nil && (Workers <= 1 || tasks <= 1) {
		// Serial fast path: constructing fr here (not shared with the
		// parallel branch) keeps it on the stack, so steady-state inference
		// allocates nothing.
		fr := fusedRun{out: out, in: in, a: a, plan: plan,
			lbias: biasData(a.LB), fbias: biasData(a.FB),
			inC: inC, h: h, w: w, outC: outC, outH: outH, outW: outW,
			kh: kh, kw: kw, sh: sh, sw: sw, ph: ph, pw: pw,
			isMax: isMax, hasPool: hasPool, act: act, area: area,
			tilesH: tilesH, tilesW: tilesW,
			xbufLen: xbufLen, midLen: midLen, pooledLen: pooledLen, ftileLen: ftileLen}
		fr.run(0, tasks)
		return nil
	}
	fr := fusedRun{out: out, in: in, a: a, plan: plan,
		lbias: biasData(a.LB), fbias: biasData(a.FB),
		inC: inC, h: h, w: w, outC: outC, outH: outH, outW: outW,
		kh: kh, kw: kw, sh: sh, sw: sw, ph: ph, pw: pw,
		isMax: isMax, hasPool: hasPool, act: act, area: area,
		tilesH: tilesH, tilesW: tilesW,
		xbufLen: xbufLen, midLen: midLen, pooledLen: pooledLen, ftileLen: ftileLen}
	return parallelForCtx(ctx, tasks, fr.run)
}

// fusedRun carries the per-invocation state of FusedPlannedCtx so the
// worker body can be a method rather than a closure: closures handed to
// parallelFor escape to the heap, while the serial path above calls run
// directly on a stack-resident value.
type fusedRun struct {
	out, in                *tensor.Tensor
	a                      *ir.FusedAttrs
	plan                   *FusedPlan // pre-packed lconv/fconv weights
	lbias, fbias           []float32  // lconv/fconv biases, nil for none
	inC, h, w              int
	outC, outH, outW       int
	kh, kw, sh, sw, ph, pw int
	isMax, hasPool         bool
	act                    actKind
	area                   float32
	tilesH, tilesW         int
	xbufLen, midLen        int
	pooledLen, ftileLen    int
}

// run processes output tiles [lo,hi). It is safe to call concurrently on
// disjoint ranges: every tile owns its output pixels.
func (fr *fusedRun) run(lo, hi int) {
	out, in, a := fr.out, fr.in, fr.a
	inC, h, w := fr.inC, fr.h, fr.w
	outC, outH, outW := fr.outC, fr.outH, fr.outW
	kh, kw, sh, sw, ph, pw := fr.kh, fr.kw, fr.sh, fr.sw, fr.ph, fr.pw
	isMax, hasPool, act, area := fr.isMax, fr.hasPool, fr.act, fr.area
	tilesH, tilesW := fr.tilesH, fr.tilesW
	// Padding positions take the pool's identity: -Inf never wins a max,
	// and 0 is the zero-padded average's contribution.
	var padFill float32
	if isMax {
		padFill = float32(math.Inf(-1))
	}

	// Scratch is per worker chunk and pooled: this is the whole point of
	// the fusion — O(MidC·tile) live bytes instead of O(MidC·H·W).
	xbufPtr := gemm.GetF32(fr.xbufLen)
	midPtr := gemm.GetF32(fr.midLen)
	xbuf, mid := *xbufPtr, *midPtr
	var pooled, ftile []float32
	var pooledPtr, ftilePtr *[]float32
	if hasPool {
		pooledPtr = gemm.GetF32(fr.pooledLen)
		pooled = *pooledPtr
	}
	if a.FW != nil {
		ftilePtr = gemm.GetF32(fr.ftileLen)
		ftile = *ftilePtr
	}
	for task := lo; task < hi; task++ {
		bIdx := task / (tilesH * tilesW)
		t := task % (tilesH * tilesW)
		th := t / tilesW
		tw := t % tilesW
		oh0 := th * FusedTile
		ow0 := tw * FusedTile
		tileH := min(FusedTile, outH-oh0)
		tileW := min(FusedTile, outW-ow0)
		// Pre-pool region for this tile in restored-map coordinates.
		rh0 := oh0*sh - ph
		rw0 := ow0*sw - pw
		rH := (tileH-1)*sh + kh
		rW := (tileW-1)*sw + kw
		rP := rH * rW
		// The in-image part of the region is the rectangle of rows
		// [r0, r1) × columns [c0, c1); everything outside it is padding,
		// which only a padded pool produces (border tiles).
		r0, c0 := max(0, -rh0), max(0, -rw0)
		r1, c1 := max(r0, min(rH, h-rh0)), max(c0, min(rW, w-rw0))
		border := r0 > 0 || r1 < rH || c0 > 0 || c1 < rW

		// Step 1: gather the input region with row copies (zeros at
		// padding), then the lconv expands it to MidC channels. ReLU rides
		// on the GEMM's store, after the bias, on each tile's final write.
		for ic := 0; ic < inC; ic++ {
			plane := in.Data[(bIdx*inC+ic)*h*w : (bIdx*inC+ic+1)*h*w]
			row := xbuf[ic*rP : (ic+1)*rP]
			for rr := 0; rr < rH; rr++ {
				dst := row[rr*rW : rr*rW+rW]
				if rr < r0 || rr >= r1 || c0 == c1 {
					clear(dst)
					continue
				}
				clear(dst[:c0])
				src := (rh0+rr)*w + rw0
				copy(dst[c0:c1], plane[src+c0:src+c1])
				clear(dst[c1:])
			}
		}
		// One GEMM per diagonal block: each reads its rows of xbuf and
		// writes its rows of mid.
		mulBlocks(true, fr.plan.lw, rP, xbuf[:inC*rP], rP, fr.lbias, mid[:a.MidC*rP], rP, act == actReLU)

		// Step 2: SiLU and Sigmoid take one pass over the region, in the
		// scalar math of applyAct (the standalone kernels' math); ReLU was
		// applied by the store above and identity needs nothing. Padding
		// positions then hold act(bias); they are overwritten with the
		// pool's identity so they never contribute: -Inf never wins a max,
		// 0 adds nothing to the zero-padded average.
		if act == actSiLU || act == actSigmoid {
			for mc := 0; mc < a.MidC; mc++ {
				row := mid[mc*rP : (mc+1)*rP]
				for p, v := range row {
					row[p] = applyAct(act, v)
				}
			}
		}
		if border {
			for mc := 0; mc < a.MidC; mc++ {
				row := mid[mc*rP : (mc+1)*rP]
				for rr := 0; rr < rH; rr++ {
					seg := row[rr*rW : rr*rW+rW]
					if rr < r0 || rr >= r1 {
						fill(seg, padFill)
						continue
					}
					fill(seg[:c0], padFill)
					fill(seg[c1:], padFill)
				}
			}
		}

		// Step 3: pool the region down to the tile. fsrc is what fconv
		// consumes: the pooled tile (T values per row, T rows apart) or,
		// with no pool, the region itself (identical coordinates).
		fsrc := mid
		fCols := rP
		fld := rP
		rowStride := rW
		if hasPool {
			for mc := 0; mc < a.MidC; mc++ {
				dst := pooled[mc*FusedTile*FusedTile:]
				for ty := 0; ty < tileH; ty++ {
					src := mid[mc*rP+ty*sh*rW:]
					drow := dst[ty*FusedTile : (ty+1)*FusedTile]
					if isMax {
						// All T columns, so a ragged tile takes the same
						// vector path. Columns past tileW read on into
						// the region's next rows; a ragged region is
						// narrower than the regP-sized one mid holds per
						// channel, so the reads stay inside mid, and
						// fconv's results for them are never copied out.
						gemm.MaxPoolRow(drow, src, rW, kh, kw, sw)
						continue
					}
					// Zero-padded average (padding contributes 0, the
					// divisor is the full area) — matches AvgPool.
					for tx := 0; tx < tileW; tx++ {
						var acc float32
						for r := 0; r < kh; r++ {
							for _, v := range src[r*rW+tx*sw:][:kw] {
								acc += v
							}
						}
						drow[tx] = acc / area
					}
				}
			}
			fsrc = pooled
			fCols = tileH * FusedTile
			fld = FusedTile * FusedTile
			rowStride = FusedTile
		}

		// Step 4: fconv back down to OutC channels via a second GEMM.
		// Tail fusion (FW == nil) emits the restored values directly.
		if a.FW == nil {
			for mc := 0; mc < a.MidC; mc++ {
				src := fsrc[mc*fld:]
				outPlane := (bIdx*outC + mc) * outH * outW
				for ty := 0; ty < tileH; ty++ {
					copy(out.Data[outPlane+(oh0+ty)*outW+ow0:outPlane+(oh0+ty)*outW+ow0+tileW],
						src[ty*rowStride:ty*rowStride+tileW])
				}
			}
			continue
		}
		mulBlocks(true, fr.plan.fw, fCols, fsrc, fld, fr.fbias, ftile, fld, false)
		for oc := 0; oc < outC; oc++ {
			src := ftile[oc*fld:]
			outPlane := (bIdx*outC + oc) * outH * outW
			for ty := 0; ty < tileH; ty++ {
				copy(out.Data[outPlane+(oh0+ty)*outW+ow0:outPlane+(oh0+ty)*outW+ow0+tileW],
					src[ty*rowStride:ty*rowStride+tileW])
			}
		}
	}
	gemm.PutF32(xbufPtr)
	gemm.PutF32(midPtr)
	if pooledPtr != nil {
		gemm.PutF32(pooledPtr)
	}
	if ftilePtr != nil {
		gemm.PutF32(ftilePtr)
	}
}

// fill sets every element of s to v.
func fill(s []float32, v float32) {
	for i := range s {
		s[i] = v
	}
}

// FusedWorkspaceBytes returns the total scratch footprint of one fused
// invocation: the per-worker arena buffers (fusedScratchLens) times the
// worker count. The memory planner charges this (small, constant in H·W)
// amount instead of the two full-size intermediates the unfused sequence
// allocates.
func FusedWorkspaceBytes(a *ir.FusedAttrs) int64 {
	xbuf, mid, pooled, ftile := fusedScratchLens(a)
	return int64(xbuf+mid+pooled+ftile) * 4 * int64(Workers)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
