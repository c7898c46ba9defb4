//go:build amd64

package gemm

import (
	"os"
	"unsafe"
)

// fmaAvailable caches the one-time CPU feature detection.
var fmaAvailable = detectFMA()

// useFMA gates the 8×8 AVX2+FMA float32 tile kernel. Detection runs once
// at init; TEMCO_NOSIMD=1 forces the portable scalar tile (useful when
// bisecting numerical differences, since FMA rounds once per multiply-add).
// SetSIMD flips it at runtime under the same hardware gate.
var useFMA = fmaAvailable && os.Getenv("TEMCO_NOSIMD") == ""

// simdAvailable reports whether the hardware supports the vector kernel,
// independent of whether it is currently enabled.
func simdAvailable() bool { return fmaAvailable }

//go:noescape
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

//go:noescape
func tileKernelAsm(k int, a, b *float32, ldb int, c *float32, ldc, rows, mode int, alpha, beta float32, bias *float32, relu int)

//go:noescape
func smallKAsm(k int, a, b *float32, ldb int, c *float32, ldc, m, chunks int, bias *float32, relu int)

//go:noescape
func convRowAccumAsm(dst, x, w *float32, n, rows, kw, xStride int)

//go:noescape
func convRowAccumQuadAsm(d0, d1, d2, d3, x0, x1, x2, x3, w *float32, n, rows, kw, xStride int)

// convRowAccumQuadArch runs the four-sample AVX row-accumulation kernel
// when the vector path is enabled; same no-FMA guarantee as the
// single-sample kernel.
func convRowAccumQuadArch(d0, d1, d2, d3, x0, x1, x2, x3, w []float32, rows, kw, xStride int) bool {
	if !useFMA {
		return false
	}
	convRowAccumQuadAsm(&d0[0], &d1[0], &d2[0], &d3[0],
		&x0[0], &x1[0], &x2[0], &x3[0], &w[0], len(d0), rows, kw, xStride)
	return true
}

//go:noescape
func maxPoolRowAsm(dst, src *float32, n, ld, kh, kw, sw int)

//go:noescape
func reluAsm(p *float32, n int)

// maxPoolRowArch runs ⌊len(dst)/8⌋ eight-wide blocks of the pool row when
// the vector path is enabled; the caller finishes the remainder.
// Compare+blend (not VMAXPS) keeps the scalar tie rule, so results never
// change. MaxPoolRow has checked that src covers every element read.
func maxPoolRowArch(dst, src []float32, ld, kh, kw, sw int) bool {
	if !useFMA {
		return false
	}
	maxPoolRowAsm(&dst[0], &src[0], len(dst), ld, kh, kw, sw)
	return true
}

// reluArch clamps in place with MAXPS when the vector path is enabled;
// +0 as the tie-keeping operand preserves -0 and NaN exactly like the
// scalar loop.
func reluArch(v []float32) bool {
	if !useFMA {
		return false
	}
	reluAsm(&v[0], len(v))
	return true
}

// convRowAccumArch runs the AVX row-accumulation kernel when the vector
// path is enabled. It uses separate multiply and add instructions (no FMA),
// so enabling it never changes results relative to the portable loop; the
// gate exists only to share the TEMCO_NOSIMD escape hatch.
func convRowAccumArch(dst, x, w []float32, rows, kw, xStride int) bool {
	if !useFMA {
		return false
	}
	convRowAccumAsm(&dst[0], &x[0], &w[0], len(dst), rows, kw, xStride)
	return true
}

// detectFMA reports whether the CPU and OS support AVX2 and FMA with YMM
// state saving (CPUID leaves 1 and 7 plus XGETBV, the standard sequence).
func detectFMA() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if lo, _ := xgetbvAsm(); lo&0x6 != 0x6 {
		return false // OS does not save XMM+YMM state
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// tileKernel bridges the generic macro-kernel onto the assembly tile: an
// 8×8 product of the packed A panel and eight columns of b (row stride
// ldb: 8 for a packed panel, the operand's leading dimension when read in
// place) written into the first rows rows of c (row stride ldc) in the
// given write-back mode, clamped by ReLU when relu is set. It is only
// reachable when T is float32 (tileDims yields an 8-tile solely for
// float32 with useFMA set), so the unsafe reinterpretation is sound. The
// reslices bound every byte the assembly touches, so a bad stride panics
// here instead of corrupting memory.
func tileKernel[T float](kcEff int, aPanel, b []T, ldb int, c []T, ldc, rows, mode int, alpha, beta T, bias []T, relu bool) {
	aPanel = aPanel[:kcEff*8]
	b = b[:(kcEff-1)*ldb+8]
	c = c[:(rows-1)*ldc+8]
	var bp *float32
	if mode == wbBias {
		bp = (*float32)(unsafe.Pointer(&bias[:rows][0]))
	}
	r := 0
	if relu {
		r = 1
	}
	tileKernelAsm(kcEff,
		(*float32)(unsafe.Pointer(&aPanel[0])),
		(*float32)(unsafe.Pointer(&b[0])), ldb,
		(*float32)(unsafe.Pointer(&c[0])), ldc, rows, mode,
		float32(alpha), float32(beta), bp, r)
}

// smallKKernel bridges the generic small-K strip onto smallKAsm: it writes
// C[i, j] = bias[i] + Σ_{p<k} A[i,p]·b[p·ldb+j] (no bias add when bias is
// nil), clamped by ReLU when relu is set, for every row i < m and column
// j < cols, cols a positive multiple of 8. ap is the MR=8 packed A. Like
// tileKernel it is only reachable for float32 with useFMA set, and the
// reslices bound every byte the assembly touches.
func smallKKernel[T float](k int, ap, b []T, ldb int, c []T, ldc, m, cols int, bias []T, relu bool) {
	ap = ap[:roundUp(m, 8)*k]
	b = b[:(k-1)*ldb+cols]
	c = c[:(m-1)*ldc+cols]
	var bp *float32
	if bias != nil {
		bp = (*float32)(unsafe.Pointer(&bias[:m][0]))
	}
	r := 0
	if relu {
		r = 1
	}
	smallKAsm(k,
		(*float32)(unsafe.Pointer(&ap[0])),
		(*float32)(unsafe.Pointer(&b[0])), ldb,
		(*float32)(unsafe.Pointer(&c[0])), ldc, m, cols/8, bp, r)
}
