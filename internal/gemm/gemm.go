// Package gemm implements the cache-blocked, register-tiled float32/float64
// matrix-multiply backbone shared by every matmul-shaped kernel in the
// repository (im2col convolution, 1×1 convolution, Linear, the fused-kernel
// micro products, and the float64 matmuls behind tensor decomposition).
//
// The algorithm is the classic three-level blocking scheme: A is packed once
// into MR-row panels spanning the full K dimension, C is computed per
// (KC × NC) cache block, and an MR×NR register tile accumulates over each KC
// slice. On amd64 with AVX2+FMA the float32 tile is one 8×8 assembly kernel
// (kernel_amd64.s) that reads B in place from the row-major operand — only
// a transposed B and the partial NR panel at a strip's edge are packed —
// and writes the tile into C in its own epilogue (alpha, bias, beta or
// accumulate, then an optional ReLU clamp and vector stores), with the
// same per-element rounding as the scalar writeBack. A plain product
// (alpha 1, beta 0) with K <= 4 — the diagonal blocks of a merged lconv
// have K = 2 — skips the tile calls: one small-K assembly call keeps the
// K B vectors of each 8-column chunk in registers, loops over every row of
// C, and rounds each element exactly as the tile kernel does. Everywhere
// else a scalar 4×4 tile runs over packed B panels. Column strips of C are
// distributed over goroutines; every float32 scratch panel comes from the
// free-list workspace arena (workspace.go), so steady-state calls allocate
// nothing. pool_row.go holds the two element kernels the fused conv runner
// needs next to its GEMMs: one max-pool row for any window and ReLU.
//
// All entry points compute C = alpha·A·B + beta·C (the pre-packed bias
// entry points C = A·B + bias, adding a per-row bias in the write-back and
// optionally applying ReLU as the final KC slice is stored) and are
// deterministic: per-element accumulation order is independent of the
// worker count and of whether B was packed, so serial and parallel runs
// produce bit-identical results.
package gemm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache blocking parameters: KC×NC is the packed B block (KC·NR·4 bytes of
// B stay L1-resident inside the macro-kernel, the whole block L2-resident).
const (
	kc = 256
	nc = 512
)

// smallK is the largest K the small-K block kernel takes: its k B vectors
// per 8-column chunk stay in registers while it loops over all rows.
const smallK = 4

// maxTile bounds the register tile edge across all micro-kernels; the
// per-tile accumulator is a stack array of maxTile² elements.
const maxTile = 8

// float covers the two element types the kernels use. Exact types (not
// approximations) so the pool dispatch in workspace.go stays total.
type float interface {
	float32 | float64
}

// tileDims reports the micro-kernel tile (MR, NR) used for element type T:
// 8×8 for float32 when the AVX2+FMA kernel is available, scalar 4×4
// otherwise.
func tileDims[T float]() (int, int) {
	var z T
	if _, ok := any(z).(float32); ok && useFMA {
		return 8, 8
	}
	return 4, 4
}

// Gemm computes C = alpha·A·B + beta·C with A an m×k row-major matrix of
// leading dimension lda, B k×n (ldb), and C m×n (ldc). Work is split over
// column strips across SetWorkers goroutines. beta==0 never reads C.
func Gemm(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	gemmAny(false, false, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// GemmBT is Gemm with B supplied row-major as an n×k matrix and used
// transposed: C = alpha·A·Bᵀ + beta·C. This is the natural layout for
// Linear's [Out,In] weight.
func GemmBT(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	gemmAny(false, true, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// GemmAT is Gemm with A supplied row-major as a k×m matrix and used
// transposed: C = alpha·Aᵀ·B + beta·C (e.g. weight gradients dW = dYᵀ·X).
func GemmAT(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	gemmAny(true, false, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// Gemm64 is Gemm over float64, used by the linalg decomposition substrate.
func Gemm64(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	gemmAny(false, false, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// Gemm64AT is GemmAT over float64 (Gram matrices: G = Aᵀ·A).
func Gemm64AT(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	gemmAny(true, false, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// gemmAny is the shared blocked implementation behind every entry point.
func gemmAny[T float](transA, transB bool, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	checkDims(transA, transB, m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		scaleC(m, n, beta, c, ldc)
		return
	}
	mr, nr := tileDims[T]()

	// Pack all of A once: MR-row panels spanning the full K dimension, each
	// panel column-major (k steps of MR contiguous values). Edge rows are
	// zero-padded so the micro-kernel never branches on MR.
	apPtr := getWS[T](roundUp(m, mr) * k)
	defer putWS(apPtr)
	ap := *apPtr
	packA(ap, a, lda, m, k, mr, transA)
	gemmCore(true, transB, m, n, k, mr, nr, alpha, ap, b, ldb, nil, beta, nil, false, c, ldc)
}

// gemmCore fans the blocked macro-kernel out over NR-aligned column strips.
// ap is A fully packed in packA layout (pooled or pre-packed by the caller).
// When pb is non-nil it is the pre-packed full-width B (PackedB layout) and
// b/ldb are ignored; otherwise each strip packs its own B blocks from b.
// A non-nil bias (m values, beta must be 0) is added to every element of
// its row as the first KC slice is written; relu clamps every element to
// max(+0, v) as the final KC slice is written. The strip schedule depends
// only on (m, n, k, nr), so pre-packed and pack-on-the-fly runs produce
// bit-identical results.
func gemmCore[T float](parallel, transB bool, m, n, k, mr, nr int, alpha T, ap, b []T, ldb int, pb []T, beta T, bias []T, relu bool, c []T, ldc int) {
	w := Workers()
	if !parallel || w <= 1 || n < 2*nr || m*n*k < 1<<15 {
		runStrip(0, n, transB, m, n, k, mr, nr, alpha, ap, b, ldb, pb, beta, bias, relu, c, ldc)
		return
	}
	// Column strips, NR-aligned so panel boundaries (and therefore
	// per-element accumulation order) match the serial schedule.
	if w > (n+nr-1)/nr {
		w = (n + nr - 1) / nr
	}
	per := roundUp((n+w-1)/w, nr)
	var wg sync.WaitGroup
	// A panic inside a strip worker (e.g. an injected allocation failure in
	// the workspace pool) is re-raised on this goroutine after all workers
	// finish, so the guard wrappers above the kernel call can recover it;
	// a panic in a bare spawned goroutine would kill the process.
	var panicked atomic.Pointer[any]
	for j0 := 0; j0 < n; j0 += per {
		j1 := min(j0+per, n)
		wg.Add(1)
		go func(j0, j1 int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			runStrip(j0, j1, transB, m, n, k, mr, nr, alpha, ap, b, ldb, pb, beta, bias, relu, c, ldc)
		}(j0, j1)
	}
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(*pv)
	}
}

// runStrip computes the column range [j0,j1) of C. A plain product
// (alpha 1, beta 0, B in place) with k <= smallK on the AVX2 path writes
// the range's full 8-column chunks with one smallKKernel call, in place of
// an 8×8 tile call per chunk and row panel; every other product, and the
// ragged columns past the chunks, runs gemmStrip's tile path. Both round
// each element as the tile kernel does, so the output bits do not depend
// on which path ran.
func runStrip[T float](j0, j1 int, transB bool, m, n, k, mr, nr int, alpha T, ap, b []T, ldb int, pb []T, beta T, bias []T, relu bool, c []T, ldc int) {
	if mr == 8 && k <= smallK && pb == nil && !transB && alpha == 1 && beta == 0 {
		if full := (j1 - j0) &^ (nr - 1); full > 0 {
			smallKKernel(k, ap, b[j0:], ldb, c[j0:], ldc, m, full, bias, relu)
			j0 += full
		}
	}
	if j0 < j1 {
		gemmStrip(j0, j1, transB, m, n, k, mr, nr, alpha, ap, b, ldb, pb, beta, bias, relu, c, ldc)
	}
}

// gemmStrip runs the blocked macro-kernel over the column range [j0,j1) of
// C. ap is the fully packed A. B comes pre-packed from pb when it is
// non-nil. Otherwise the AVX2 tile path reads a non-transposed B in place
// (stride ldb) and packs only the partial edge panel, while transposed
// operands and the portable 4×4 path pack each (KC × NC) block of b into a
// pooled panel. Full AVX2 tiles are written into C by the tile kernel's
// own epilogue; partial tiles, and every portable tile, go through a stack
// tile and writeBack. n is the full C width (pb indexing needs it).
func gemmStrip[T float](j0, j1 int, transB bool, m, n, k, mr, nr int, alpha T, ap, b []T, ldb int, pb []T, beta T, bias []T, relu bool, c []T, ldc int) {
	tile := mr == 8
	inPlace := tile && pb == nil && !transB
	// Strips start NR-aligned and blocks are NC wide, so only the last
	// panel of the strip can be partial.
	edge := (j1 - j0) % nr
	var bp []T
	var bpPtr *[]T
	switch {
	case pb != nil:
	case inPlace:
		if edge != 0 {
			bpPtr = getWS[T](kc * nr)
		}
	default:
		bpPtr = getWS[T](kc * roundUp(min(nc, j1-j0), nr))
	}
	if bpPtr != nil {
		bp = *bpPtr
	}
	nR := roundUp(n, nr)
	for jc := j0; jc < j1; jc += nc {
		ncEff := min(nc, j1-jc)
		ncR := roundUp(ncEff, nr)
		for pc := 0; pc < k; pc += kc {
			kcEff := min(kc, k-pc)
			switch {
			case pb != nil:
			case inPlace:
				if jc+ncEff == j1 && edge != 0 {
					packB(bp[:kcEff*nr], b, ldb, pc, kcEff, j1-edge, edge, nr, false)
				}
			default:
				packB(bp[:kcEff*ncR], b, ldb, pc, kcEff, jc, ncEff, nr, transB)
			}
			// The write-back mode is fixed per KC slice: the first one
			// applies bias or beta, every later one accumulates. ReLU
			// rides on the last slice, when each element is final.
			last := relu && pc+kcEff == k
			mode := wbAccumulate
			switch {
			case pc > 0:
			case bias != nil:
				mode = wbBias
			case beta == 0:
				mode = wbOverwrite
			default:
				mode = wbBeta
			}
			for jr := 0; jr < ncEff; jr += nr {
				nrEff := min(nr, ncEff-jr)
				bPanel, bld := []T(nil), nr
				switch {
				case pb != nil:
					// Block pc/kc starts at pc·nR (every earlier block holds
					// kc full rows of all nR padded columns); panels inside
					// it are nr·kcEff apart.
					bPanel = pb[pc*nR+((jc+jr)/nr)*nr*kcEff:][: kcEff*nr : kcEff*nr]
				case inPlace && nrEff == nr:
					bPanel, bld = b[pc*ldb+jc+jr:], ldb
				case inPlace:
					bPanel = bp[:kcEff*nr]
				default:
					bPanel = bp[(jr/nr)*nr*kcEff:][: kcEff*nr : kcEff*nr]
				}
				for ir := 0; ir < m; ir += mr {
					aPanel := ap[(ir/mr)*mr*k+pc*mr:][: kcEff*mr : kcEff*mr]
					mrEff := min(mr, m-ir)
					if tile && nrEff == nr {
						var rowBias []T
						if mode == wbBias {
							rowBias = bias[ir:]
						}
						tileKernel(kcEff, aPanel, bPanel, bld, c[ir*ldc+jc+jr:], ldc, mrEff, mode, alpha, beta, rowBias, last)
						continue
					}
					var acc [maxTile * maxTile]T
					if tile {
						tileKernel(kcEff, aPanel, bPanel, bld, acc[:], nr, nr, wbOverwrite, 1, 0, nil, false)
					} else {
						microKernel(kcEff, aPanel, bPanel, &acc)
					}
					writeBack(mode, c, ldc, ir, jc+jr, mrEff, nrEff, nr, alpha, beta, bias, last, &acc)
				}
			}
		}
	}
	if bpPtr != nil {
		putWS(bpPtr)
	}
}

// microKernel is the portable 4×4 tile: acc[i*4+j] += Σ_p aPanel[p*4+i]·
// bPanel[p*4+j]. Panels are zero-padded at the edges, so no remainder
// handling is needed; the accumulators live in registers across the whole
// KC slice.
func microKernel[T float](kcEff int, aPanel, bPanel []T, acc *[maxTile * maxTile]T) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	var c20, c21, c22, c23 T
	var c30, c31, c32, c33 T
	aPanel = aPanel[:kcEff*4]
	bPanel = bPanel[:kcEff*4]
	for p := 0; p < kcEff; p++ {
		ai := p * 4
		a0, a1, a2, a3 := aPanel[ai], aPanel[ai+1], aPanel[ai+2], aPanel[ai+3]
		b0, b1, b2, b3 := bPanel[ai], bPanel[ai+1], bPanel[ai+2], bPanel[ai+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
}

// Write-back modes: how one micro-tile lands in C. The values are also the
// mode argument of tileKernelAsm (kernel_amd64.s), which branches on them.
const (
	wbAccumulate = iota // later KC slices: C += alpha·acc
	wbOverwrite         // first slice, beta == 0: C = alpha·acc, C never read
	wbBeta              // first slice: C = alpha·acc + beta·C
	wbBias              // first slice: C = alpha·acc + bias[row], C never read
)

// writeBack folds one micro-tile into C in the given mode. The mode is
// picked once per tile, so the element loops carry no branch. alpha·acc +
// bias rounds exactly like alpha·acc + 1·C over a C pre-filled with the
// bias, so the bias mode is bit-identical to that older two-pass form.
// relu then clamps the written rows with the scalar ReLU rule, exactly
// like the tile kernel's +0 floor.
func writeBack[T float](mode int, c []T, ldc, i0, j0, mrEff, nrEff, nr int, alpha, beta T, bias []T, relu bool, acc *[maxTile * maxTile]T) {
	switch mode {
	case wbAccumulate:
		for i := 0; i < mrEff; i++ {
			row := c[(i0+i)*ldc+j0:][:nrEff]
			for j, v := range acc[i*nr : i*nr+nrEff] {
				row[j] += alpha * v
			}
		}
	case wbOverwrite:
		for i := 0; i < mrEff; i++ {
			row := c[(i0+i)*ldc+j0:][:nrEff]
			for j, v := range acc[i*nr : i*nr+nrEff] {
				row[j] = alpha * v
			}
		}
	case wbBias:
		for i := 0; i < mrEff; i++ {
			row := c[(i0+i)*ldc+j0:][:nrEff]
			bv := bias[i0+i]
			for j, v := range acc[i*nr : i*nr+nrEff] {
				row[j] = alpha*v + bv
			}
		}
	default:
		for i := 0; i < mrEff; i++ {
			row := c[(i0+i)*ldc+j0:][:nrEff]
			for j, v := range acc[i*nr : i*nr+nrEff] {
				row[j] = alpha*v + beta*row[j]
			}
		}
	}
	if !relu {
		return
	}
	for i := 0; i < mrEff; i++ {
		row := c[(i0+i)*ldc+j0:][:nrEff]
		for j, v := range row {
			if v < 0 {
				row[j] = 0
			}
		}
	}
}

// packA lays A out as MR-row panels spanning all k columns, each panel
// stored column-major; rows past m are zero-padded.
func packA[T float](dst, a []T, lda, m, k, mr int, trans bool) {
	idx := 0
	for ir := 0; ir < m; ir += mr {
		mrEff := min(mr, m-ir)
		if trans {
			for p := 0; p < k; p++ {
				src := a[p*lda+ir:]
				for r := 0; r < mrEff; r++ {
					dst[idx+r] = src[r]
				}
				for r := mrEff; r < mr; r++ {
					dst[idx+r] = 0
				}
				idx += mr
			}
			continue
		}
		for p := 0; p < k; p++ {
			for r := 0; r < mrEff; r++ {
				dst[idx+r] = a[(ir+r)*lda+p]
			}
			for r := mrEff; r < mr; r++ {
				dst[idx+r] = 0
			}
			idx += mr
		}
	}
}

// packB lays the (kcEff × ncEff) block of B starting at (pc, jc) out as
// NR-column panels, each panel row-major over the KC slice; columns past
// ncEff are zero-padded.
func packB[T float](dst, b []T, ldb, pc, kcEff, jc, ncEff, nr int, trans bool) {
	idx := 0
	for jr := 0; jr < ncEff; jr += nr {
		nrEff := min(nr, ncEff-jr)
		for p := 0; p < kcEff; p++ {
			if trans {
				for j := 0; j < nrEff; j++ {
					dst[idx+j] = b[(jc+jr+j)*ldb+pc+p]
				}
			} else {
				copy(dst[idx:idx+nrEff], b[(pc+p)*ldb+jc+jr:])
			}
			for j := nrEff; j < nr; j++ {
				dst[idx+j] = 0
			}
			idx += nr
		}
	}
}

// scaleC applies C = beta·C (the k==0 / alpha==0 degenerate case).
func scaleC[T float](m, n int, beta T, c []T, ldc int) {
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		for j := range row {
			row[j] *= beta
		}
	}
}

// checkDims validates shapes and slice extents up front so kernels fail
// loudly at the boundary instead of corrupting memory mid-product.
func checkDims(transA, transB bool, m, n, k, lenA, lda, lenB, ldb, lenC, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("gemm: negative dimensions m=%d n=%d k=%d", m, n, k))
	}
	aRows, aCols := m, k
	if transA {
		aRows, aCols = k, m
	}
	bRows, bCols := k, n
	if transB {
		bRows, bCols = n, k
	}
	if lda < aCols || (aRows > 0 && lenA < (aRows-1)*lda+aCols) {
		panic(fmt.Sprintf("gemm: A too small: len=%d lda=%d for %d×%d", lenA, lda, aRows, aCols))
	}
	if ldb < bCols || (bRows > 0 && lenB < (bRows-1)*ldb+bCols) {
		panic(fmt.Sprintf("gemm: B too small: len=%d ldb=%d for %d×%d", lenB, ldb, bRows, bCols))
	}
	if ldc < n || (m > 0 && n > 0 && lenC < (m-1)*ldc+n) {
		panic(fmt.Sprintf("gemm: C too small: len=%d ldc=%d for %d×%d", lenC, ldc, m, n))
	}
}

func roundUp(n, q int) int { return (n + q - 1) / q * q }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
