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
//	offs   int32  gather offsets into the input plane (-1 = padding)
//	valid  bool   per-position padding mask
//	xbuf   f32    packed input region [InC × regP] for the lconv GEMM
//	mid    f32    restored region [MidC × regP]
//	pooled f32    pooled tile [MidC × T²] (pool layers only)
//	ftile  f32    fconv output tile [OutC × T²] (zero for tail fusion)
func fusedScratchLens(a *ir.FusedAttrs) (offs, valid, xbuf, mid, pooled, ftile int) {
	kh, kw, sh, sw := 1, 1, 1, 1
	if a.Pool != nil {
		kh, kw, sh, sw = a.Pool.KH, a.Pool.KW, a.Pool.SH, a.Pool.SW
	}
	regP := ((FusedTile-1)*sh + kh) * ((FusedTile-1)*sw + kw)
	offs = regP
	valid = regP
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
//     a merged lconv) on the blocked micro-kernel, bias added as it writes,
//  2. applies the activation in place (padding positions forced to zero),
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
	offsLen, validLen, xbufLen, midLen, pooledLen, ftileLen := fusedScratchLens(a)

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
			offsLen: offsLen, validLen: validLen, xbufLen: xbufLen,
			midLen: midLen, pooledLen: pooledLen, ftileLen: ftileLen}
		fr.run(0, tasks)
		return nil
	}
	fr := fusedRun{out: out, in: in, a: a, plan: plan,
		lbias: biasData(a.LB), fbias: biasData(a.FB),
		inC: inC, h: h, w: w, outC: outC, outH: outH, outW: outW,
		kh: kh, kw: kw, sh: sh, sw: sw, ph: ph, pw: pw,
		isMax: isMax, hasPool: hasPool, act: act, area: area,
		tilesH: tilesH, tilesW: tilesW,
		offsLen: offsLen, validLen: validLen, xbufLen: xbufLen,
		midLen: midLen, pooledLen: pooledLen, ftileLen: ftileLen}
	return parallelForCtx(ctx, tasks, fr.run)
}

// fusedRun carries the per-invocation state of FusedPlannedCtx so the
// worker body can be a method rather than a closure: closures handed to
// parallelFor escape to the heap, while the serial path above calls run
// directly on a stack-resident value.
type fusedRun struct {
	out, in                     *tensor.Tensor
	a                           *ir.FusedAttrs
	plan                        *FusedPlan // pre-packed lconv/fconv weights
	lbias, fbias                []float32  // lconv/fconv biases, nil for none
	inC, h, w                   int
	outC, outH, outW            int
	kh, kw, sh, sw, ph, pw      int
	isMax, hasPool              bool
	act                         actKind
	area                        float32
	tilesH, tilesW              int
	offsLen, validLen, xbufLen  int
	midLen, pooledLen, ftileLen int
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

	// Scratch is per worker chunk and pooled: this is the whole point of
	// the fusion — O(MidC·tile) live bytes instead of O(MidC·H·W).
	offsPtr := gemm.GetI32(fr.offsLen)
	validPtr := gemm.GetBool(fr.validLen)
	xbufPtr := gemm.GetF32(fr.xbufLen)
	midPtr := gemm.GetF32(fr.midLen)
	offs, valid, xbuf, mid := *offsPtr, *validPtr, *xbufPtr, *midPtr
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

		// Step 1: gather the input region (zeros at padding), then the
		// lconv expands it to MidC channels; activation follows in place.
		// Interior tiles — the common case — have a fully in-bounds region
		// and pack with row copies; only border tiles walk the offset table.
		allValid := rh0 >= 0 && rw0 >= 0 && rh0+rH <= h && rw0+rW <= w
		if allValid {
			// The generic pool below still consults the mask (scratch is
			// reused across tasks, so it must not go stale even when every
			// position is in bounds).
			for p := range valid[:rP] {
				valid[p] = true
			}
			for ic := 0; ic < inC; ic++ {
				base := (bIdx*inC+ic)*h*w + rh0*w + rw0
				row := xbuf[ic*rP : (ic+1)*rP]
				for rr := 0; rr < rH; rr++ {
					copy(row[rr*rW:rr*rW+rW], in.Data[base+rr*w:base+rr*w+rW])
				}
			}
		} else {
			for p := 0; p < rP; p++ {
				ih := rh0 + p/rW
				iw := rw0 + p%rW
				if ih >= 0 && ih < h && iw >= 0 && iw < w {
					valid[p] = true
					offs[p] = int32(ih*w + iw)
				} else {
					valid[p] = false
					offs[p] = -1
				}
			}
			for ic := 0; ic < inC; ic++ {
				base := (bIdx*inC + ic) * h * w
				row := xbuf[ic*rP : (ic+1)*rP]
				for p, o := range offs[:rP] {
					if o >= 0 {
						row[p] = in.Data[base+int(o)]
					} else {
						row[p] = 0
					}
				}
			}
		}
		// One GEMM per diagonal block: each reads its rows of xbuf and
		// writes its rows of mid.
		mulBlocks(true, fr.plan.lw, rP, xbuf[:inC*rP], rP, fr.lbias, mid[:a.MidC*rP], rP)

		// Step 2: activation over valid positions, zero at padding (a
		// padded position must not contribute applyAct(bias) downstream).
		// Two cases skip the padding mask entirely: interior tiles have no
		// padded positions, and max pooling never reads them (its own mask
		// check below skips invalid positions, so their values are dead).
		// The specialized loops apply the same scalar math in the same
		// order as applyAct, so outputs are bit-identical on every path.
		// When the unrolled max-pool fast path below can absorb the
		// activation (ReLU or identity), the whole pass is skipped: ReLU is
		// itself a max, so clamping at the single read site computes the
		// same window maximum as clamping every element first.
		fastPool := hasPool && isMax && allValid && kh == 2 && kw == 2 && sh == 2 && sw == 2
		actInPool := fastPool && (act == actReLU || act == actIdentity)
		if actInPool {
			// Activation handled inside the pool read below.
		} else if allValid || (hasPool && isMax) {
			switch act {
			case actIdentity:
				// Nothing to apply.
			case actReLU:
				for mc := 0; mc < a.MidC; mc++ {
					gemm.ReLU(mid[mc*rP : (mc+1)*rP])
				}
			default:
				for mc := 0; mc < a.MidC; mc++ {
					row := mid[mc*rP : (mc+1)*rP]
					for p, v := range row {
						row[p] = applyAct(act, v)
					}
				}
			}
		} else {
			for mc := 0; mc < a.MidC; mc++ {
				row := mid[mc*rP : (mc+1)*rP]
				for p := 0; p < rP; p++ {
					if valid[p] {
						row[p] = applyAct(act, row[p])
					} else {
						row[p] = 0
					}
				}
			}
		}

		// Step 3: pool the region down to the tile. fsrc is what fconv
		// consumes: the pooled tile (row stride T²... laid out T per row)
		// or, with no pool, the region itself (identical coordinates).
		fsrc := mid
		fCols := rP
		fld := rP
		rowStride := rW
		if fastPool {
			// Unrolled fast path for the ubiquitous 2×2/2 max pool on an
			// interior tile: the four candidates are compared in the exact
			// row-major order of the generic loop below, starting from the
			// same -Inf identity, so the result is bit-identical. With
			// actInPool the window maximum of the raw values is clamped
			// once at the end — ReLU commutes with max exactly.
			clamp := actInPool && act == actReLU
			for mc := 0; mc < a.MidC; mc++ {
				src := mid[mc*rP:]
				dst := pooled[mc*FusedTile*FusedTile:]
				for ty := 0; ty < tileH; ty++ {
					srow := src[ty*2*rW:]
					gemm.MaxPool2x2Row(dst[ty*FusedTile:ty*FusedTile+tileW],
						srow[:rW], srow[rW:2*rW], clamp)
				}
			}
			fsrc = pooled
			fCols = tileH * FusedTile
			fld = FusedTile * FusedTile
			rowStride = FusedTile
		} else if hasPool {
			for mc := 0; mc < a.MidC; mc++ {
				src := mid[mc*rP:]
				dst := pooled[mc*FusedTile*FusedTile:]
				for ty := 0; ty < tileH; ty++ {
					for tx := 0; tx < tileW; tx++ {
						var acc float32
						if isMax {
							acc = float32(math.Inf(-1))
						}
						for r := 0; r < kh; r++ {
							py := ty*sh + r
							for q := 0; q < kw; q++ {
								px := tx*sw + q
								p := py*rW + px
								if isMax {
									if !valid[p] {
										continue
									}
									if v := src[p]; v > acc {
										acc = v
									}
								} else {
									// Zero-padded average (padding
									// contributes 0, divisor is full
									// area) — matches AvgPool.
									acc += src[p]
								}
							}
						}
						if !isMax {
							acc /= area
						}
						dst[ty*FusedTile+tx] = acc
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
		mulBlocks(true, fr.plan.fw, fCols, fsrc, fld, fr.fbias, ftile, fld)
		for oc := 0; oc < outC; oc++ {
			src := ftile[oc*fld:]
			outPlane := (bIdx*outC + oc) * outH * outW
			for ty := 0; ty < tileH; ty++ {
				copy(out.Data[outPlane+(oh0+ty)*outW+ow0:outPlane+(oh0+ty)*outW+ow0+tileW],
					src[ty*rowStride:ty*rowStride+tileW])
			}
		}
	}
	gemm.PutI32(offsPtr)
	gemm.PutBool(validPtr)
	gemm.PutF32(xbufPtr)
	gemm.PutF32(midPtr)
	if pooledPtr != nil {
		gemm.PutF32(pooledPtr)
	}
	if ftilePtr != nil {
		gemm.PutF32(ftilePtr)
	}
}

// FusedWorkspaceBytes returns the total scratch footprint of one fused
// invocation: the per-worker arena buffers (fusedScratchLens) times the
// worker count. The memory planner charges this (small, constant in H·W)
// amount instead of the two full-size intermediates the unfused sequence
// allocates.
func FusedWorkspaceBytes(a *ir.FusedAttrs) int64 {
	offs, valid, xbuf, mid, pooled, ftile := fusedScratchLens(a)
	perWorker := int64(offs)*4 + int64(valid) + int64(xbuf+mid+pooled+ftile)*4
	return perWorker * int64(Workers)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
