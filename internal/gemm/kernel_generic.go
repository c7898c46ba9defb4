//go:build !amd64

package gemm

// useFMA is false off amd64: every product runs on the portable scalar
// 4×4 micro-kernel. It is a var only so SetSIMD compiles; simdAvailable
// keeps it pinned to false.
var useFMA = false

// simdAvailable reports false off amd64: there is no vector kernel.
func simdAvailable() bool { return false }

// tileKernel is unreachable when useFMA is false; it exists so the generic
// macro-kernel compiles on every architecture.
func tileKernel[T float](kcEff int, aPanel, b []T, ldb int, c []T, ldc, rows, mode int, alpha, beta T, bias []T, relu bool) {
	panic("gemm: 8×8 tile kernel invoked without AVX2 support")
}

// smallKKernel is unreachable when useFMA is false, like tileKernel.
func smallKKernel[T float](k int, ap, b []T, ldb int, c []T, ldc, m, cols int, bias []T, relu bool) {
	panic("gemm: small-K kernel invoked without AVX2 support")
}

// convRowAccumArch reports no vector row-accumulation kernel off amd64;
// ConvRowAccum falls back to the portable loop, which is bit-identical.
func convRowAccumArch(dst, x, w []float32, rows, kw, xStride int) bool {
	return false
}

// convRowAccumQuadArch reports no four-sample vector kernel off amd64;
// ConvRowAccumQuad falls back to four portable calls.
func convRowAccumQuadArch(d0, d1, d2, d3, x0, x1, x2, x3, w []float32, rows, kw, xStride int) bool {
	return false
}

// maxPoolRowArch reports no vector pool kernel off amd64.
func maxPoolRowArch(dst, src []float32, ld, kh, kw, sw int) bool { return false }

// reluArch reports no vector clamp kernel off amd64.
func reluArch(v []float32) bool { return false }
